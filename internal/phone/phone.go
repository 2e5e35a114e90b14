// Package phone simulates the data contributor's smartphone: it samples
// the (synthetic) body sensors, runs on-device context inference, annotates
// the packets with inferred context (paper §6), and uploads them to the
// owner's remote data store. With rule-aware collection enabled (§5.3) the
// phone first downloads the owner's privacy rules and, packet by packet,
// decides to skip collection entirely (no rule could share data at this
// location/time), collect temporarily and discard after context inference
// (sharing hinged on a context condition that did not hold), or upload.
package phone

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/inference"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/sensors"
	"sensorsafe/internal/wavesegment"
)

// Store is the phone's view of its remote data store. *datastore.Service
// satisfies it directly; networked phones use the HTTP client. Both calls
// take the session's context, so every phone→store hop joins its trace.
type Store interface {
	// UploadCtx ingests annotated wave segments.
	UploadCtx(ctx context.Context, key auth.APIKey, segs []*wavesegment.Segment) (int, error)
	// RulesForCtx returns the owner's compiled rule engine (nil when the
	// owner has not defined rules yet).
	RulesForCtx(ctx context.Context, key auth.APIKey) (*rules.Engine, error)
}

// Phone is one simulated device.
type Phone struct {
	// Contributor is the device owner.
	Contributor string
	// Key is the owner's API key on the store.
	Key auth.APIKey
	// Store is the owner's remote data store.
	Store Store
	// RuleAware enables privacy-rule-aware collection (§5.3). The paper
	// makes this optional: discarded data is unrecoverable if the owner
	// later relaxes their rules.
	RuleAware bool
	// Window is the inference window (inference.DefaultWindow when zero).
	Window time.Duration
	// BatchPackets is how many packets accumulate before an upload round
	// trip (default 16).
	BatchPackets int
	// Pace, when set, is called with each packet's recorded duration
	// before the packet is processed, letting a live simulation replay
	// the scenario at scripted wall-clock speed (the caller scales and
	// sleeps). Nil replays as one burst.
	Pace func(d time.Duration)
	// Outbox, when set, makes uploads outage-tolerant: a batch the store
	// rejects with a transport error is spilled durably instead of
	// aborting the session, and spilled batches are drained at the start
	// of the next session (and by explicit DrainOutbox calls).
	Outbox *Outbox
}

// Report tallies one collection session.
type Report struct {
	// PacketsTotal is the number of packets the scenario produced.
	PacketsTotal int
	// PacketsSkipped were never collected (sensors disabled).
	PacketsSkipped int
	// PacketsDiscarded were collected temporarily and dropped after
	// context inference.
	PacketsDiscarded int
	// PacketsUploaded reached the store.
	PacketsUploaded int
	// SamplesTotal / SamplesUploaded count individual samples;
	// SamplesSkipped counts samples in packets that were never collected
	// (sensors off).
	SamplesTotal    int
	SamplesUploaded int
	SamplesSkipped  int
	// BytesUploaded is the wire size (binary blob) of uploaded packets.
	BytesUploaded int
	// RecordsWritten is how many records the store created (after its
	// wave-segment optimization).
	RecordsWritten int
	// BatchesSpilled / SamplesSpilled count batches the store could not
	// accept this session that went to the durable outbox instead.
	// Spilled samples still count as uploaded in the Samples* tallies —
	// they left the device and will reach the store on drain.
	BatchesSpilled int
	SamplesSpilled int
	// BatchesRecovered counts outbox batches drained at session start.
	BatchesRecovered int
}

// UploadFraction is the fraction of samples that reached the store.
func (r *Report) UploadFraction() float64 {
	if r.SamplesTotal == 0 {
		return 0
	}
	return float64(r.SamplesUploaded) / float64(r.SamplesTotal)
}

// EnergyModel approximates phone-side energy per session, the resource
// §5.3's rule-aware collection conserves: sensing cost for every sample
// actually collected (skipped packets keep the sensors off), inference
// cost for every collected sample, and radio cost per uploaded byte.
// Defaults are order-of-magnitude figures for a 2011-class smartphone.
type EnergyModel struct {
	// SenseMJPerSample covers ADC + sensor power per multi-channel sample.
	SenseMJPerSample float64
	// CPUMJPerSample covers feature extraction/inference per sample.
	CPUMJPerSample float64
	// RadioMJPerByte covers WiFi transmission.
	RadioMJPerByte float64
}

// DefaultEnergyModel returns the documented default coefficients.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{SenseMJPerSample: 0.05, CPUMJPerSample: 0.01, RadioMJPerByte: 0.005}
}

// Energy is a session's estimated energy split, in millijoules.
type Energy struct {
	SenseMJ float64 `json:"senseMJ"`
	CPUMJ   float64 `json:"cpuMJ"`
	RadioMJ float64 `json:"radioMJ"`
	TotalMJ float64 `json:"totalMJ"`
}

// Estimate computes the session's energy under the model. Samples in
// skipped packets cost nothing (sensors stayed off); discarded packets pay
// sensing and inference but no radio.
func (m EnergyModel) Estimate(r *Report) Energy {
	sensed := float64(r.SamplesTotal - r.SamplesSkipped)
	e := Energy{
		SenseMJ: sensed * m.SenseMJPerSample,
		CPUMJ:   sensed * m.CPUMJPerSample,
		RadioMJ: float64(r.BytesUploaded) * m.RadioMJPerByte,
	}
	e.TotalMJ = e.SenseMJ + e.CPUMJ + e.RadioMJ
	return e
}

// RunCtx executes a scripted scenario end to end and reports what was
// collected and uploaded. ctx's trace follows the rule download, the
// outbox drain and every upload to the store.
func (p *Phone) RunCtx(ctx context.Context, sc *sensors.Scenario) (*Report, error) {
	if p.Store == nil {
		return nil, fmt.Errorf("phone: no store configured")
	}
	rec, err := sensors.Generate(p.Contributor, sc)
	if err != nil {
		return nil, err
	}
	return p.ProcessCtx(ctx, rec)
}

// DrainOutbox re-uploads spilled batches immediately (no-op without an
// outbox). It returns how many batches and store records made it.
func (p *Phone) DrainOutbox(ctx context.Context) (batches, records int, err error) {
	if p.Outbox == nil {
		return 0, 0, nil
	}
	return p.Outbox.Drain(ctx, p.Store, p.Key)
}

// ProcessCtx runs inference, annotation, rule-aware filtering, and upload
// over an existing recording (see RunCtx).
func (p *Phone) ProcessCtx(ctx context.Context, rec *sensors.Recording) (*Report, error) {
	ann := &inference.Annotator{Window: p.Window}
	all := rec.AllSegments()
	spans := ann.Annotate(all)
	inference.ApplyAnnotations(all, spans)

	var engine *rules.Engine
	if p.RuleAware {
		e, err := p.Store.RulesForCtx(ctx, p.Key)
		if err != nil {
			return nil, fmt.Errorf("phone: downloading rules: %w", err)
		}
		engine = e // nil engine = no rules yet = nothing shareable
	}

	rep := &Report{}

	// Drain on recovery: anything spilled in an earlier session goes out
	// first so the store sees data in rough arrival order. A still-down
	// store is not an error — the spilled batches just wait.
	if p.Outbox != nil {
		drained, n, _ := p.Outbox.Drain(ctx, p.Store, p.Key)
		rep.BatchesRecovered = drained
		rep.RecordsWritten += n
	}

	batchSize := p.BatchPackets
	if batchSize <= 0 {
		batchSize = 16
	}
	var batch []*wavesegment.Segment
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := p.Store.UploadCtx(ctx, p.Key, batch)
		if err != nil {
			// Spill on failure: with an outbox the session survives a
			// store outage; the batch is durable and drains later.
			if p.Outbox != nil {
				if serr := p.Outbox.Spill(batch); serr != nil {
					return fmt.Errorf("phone: upload failed (%v) and spill failed: %w", err, serr)
				}
				rep.BatchesSpilled++
				for _, piece := range batch {
					rep.SamplesSpilled += piece.NumSamples()
				}
				batch = nil
				return nil
			}
			return fmt.Errorf("phone: upload: %w", err)
		}
		rep.RecordsWritten += n
		batch = nil
		return nil
	}

	for _, seg := range all {
		if p.Pace != nil {
			p.Pace(seg.EndTime().Sub(seg.StartTime()))
		}
		rep.PacketsTotal++
		rep.SamplesTotal += seg.NumSamples()

		keep := []*wavesegment.Segment{seg}
		if p.RuleAware {
			var skipped, discarded bool
			keep, skipped, discarded = filterPacket(engine, seg)
			switch {
			case len(keep) == 0 && skipped && !discarded:
				rep.PacketsSkipped++
				rep.SamplesSkipped += seg.NumSamples()
				continue
			case len(keep) == 0:
				rep.PacketsDiscarded++
				continue
			}
		}

		rep.PacketsUploaded++
		for _, piece := range keep {
			rep.SamplesUploaded += piece.NumSamples()
			if blob, err := wavesegment.MarshalBinary(piece); err == nil {
				rep.BytesUploaded += len(blob)
			}
			batch = append(batch, piece)
		}
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return rep, err
			}
		}
	}
	if err := flush(); err != nil {
		return rep, err
	}
	return rep, nil
}

// filterPacket applies the §5.3 collection decision to one packet. The
// decision can flip inside a packet — at a rule time-condition boundary or
// at a context-annotation edge — so the packet is cut into spans of
// constant decision and each span kept or dropped independently. This
// makes rule-aware collection exactly release-preserving: what reaches the
// store is precisely what enforcement would have released to somebody.
// skipped/discarded report whether any span was dropped before collection
// (sensors off) vs after context inference.
func filterPacket(e *rules.Engine, seg *wavesegment.Segment) (keep []*wavesegment.Segment, skipped, discarded bool) {
	if e == nil {
		return nil, true, false
	}
	start, end := seg.StartTime(), seg.EndTime()
	cuts := []time.Time{start}
	cuts = append(cuts, e.BoundariesWithin(start, end)...)
	for _, a := range seg.Annotations {
		if a.Start.After(start) && a.Start.Before(end) {
			cuts = append(cuts, a.Start)
		}
		if a.End.After(start) && a.End.Before(end) {
			cuts = append(cuts, a.End)
		}
	}
	cuts = append(cuts, end)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })

	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		if !from.Before(to) {
			continue
		}
		switch e.CollectionDecision(from, seg.Location) {
		case rules.CollectSkip:
			skipped = true
			continue
		case rules.CollectNeedsContext, rules.CollectShare:
			if !e.SharedWithAnyone(from, seg.Location, seg.ContextsAt(from)) {
				discarded = true
				continue
			}
		}
		if piece := seg.Slice(from, to); piece != nil {
			keep = append(keep, piece)
		}
	}
	return keep, skipped, discarded
}
