package phone

import (
	"context"
	"testing"
	"time"

	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
)

func TestEnergyModelArithmetic(t *testing.T) {
	m := EnergyModel{SenseMJPerSample: 2, CPUMJPerSample: 1, RadioMJPerByte: 0.5}
	r := &Report{SamplesTotal: 100, SamplesSkipped: 40, BytesUploaded: 10}
	e := m.Estimate(r)
	if e.SenseMJ != 120 || e.CPUMJ != 60 || e.RadioMJ != 5 || e.TotalMJ != 185 {
		t.Errorf("energy = %+v", e)
	}
	if got := DefaultEnergyModel(); got.SenseMJPerSample <= 0 || got.RadioMJPerByte <= 0 {
		t.Errorf("defaults = %+v", got)
	}
}

func TestEnergySavingsFromRuleAwareCollection(t *testing.T) {
	ctx := context.Background()
	// Sensors stay off while home-bound data is unshareable, so the
	// rule-aware session spends strictly less energy on every component.
	svc, p := setup(t)
	setRules(t, svc, p, `[
	  {"TimeRange":{"Start":"2011-02-16T08:02:00Z"},"Action":"Allow"}
	]`)
	sc := scenario(sensors.Phase{Duration: 4 * time.Minute, Activity: rules.CtxStill})

	p.RuleAware = false
	naive, err := p.RunCtx(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	svc2, p2 := setup(t)
	setRules(t, svc2, p2, `[
	  {"TimeRange":{"Start":"2011-02-16T08:02:00Z"},"Action":"Allow"}
	]`)
	p2.RuleAware = true
	aware, err := p2.RunCtx(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}

	m := DefaultEnergyModel()
	en, ea := m.Estimate(naive), m.Estimate(aware)
	if ea.TotalMJ >= en.TotalMJ {
		t.Errorf("rule-aware energy %.1f mJ should beat naive %.1f mJ", ea.TotalMJ, en.TotalMJ)
	}
	if ea.SenseMJ >= en.SenseMJ {
		t.Errorf("sensing energy should drop: %.1f vs %.1f", ea.SenseMJ, en.SenseMJ)
	}
	if ea.RadioMJ >= en.RadioMJ {
		t.Errorf("radio energy should drop: %.1f vs %.1f", ea.RadioMJ, en.RadioMJ)
	}
	// Roughly half the session is before the shareable window.
	if frac := ea.TotalMJ / en.TotalMJ; frac < 0.3 || frac > 0.8 {
		t.Errorf("energy fraction = %.2f, want ~0.5", frac)
	}
}
