package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"

	"sensorsafe/internal/resilience"
)

// envInfo says where a ledger row was measured.
type envInfo struct {
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	Commit string `json:"commit"`
	Seed   int64  `json:"seed"`
}

// row is the one schema every number of the ledger is written in.
type row struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"` // "e2e" for the bounded end-to-end metrics, else the name's prefix
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Env      envInfo `json:"env"`
	// Spread is the interquartile range as a share of the median when the
	// value is the median of repeated runs.
	Spread float64 `json:"spread,omitempty"`
	// Invalid marks rows of a run whose load generator was the bottleneck.
	Invalid bool `json:"invalid,omitempty"`
}

func currentEnv(root string, seed int64) envInfo {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{Go: runtime.Version(), NProc: runtime.NumCPU(), Commit: commit, Seed: seed}
}

// layerOf splits a catalogue name into its ledger layer and metric.
func layerOf(name string) (layer, metric string) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i], name[i+1:]
	}
	return "e2e", name
}

// rowsOf flattens runs of one workload into ledger rows: one run as it
// is, several as their median with the spread between them.
func rowsOf(runs []*result, env envInfo) []row {
	if len(runs) == 0 {
		return nil
	}
	var names []string
	for name := range runs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	invalid := false
	for _, r := range runs {
		invalid = invalid || r.Invalid
	}
	var out []row
	for _, name := range names {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[name].Value)
		}
		layer, metric := layerOf(name)
		rw := row{Workload: runs[0].Workload, Layer: layer, Metric: metric, Unit: runs[0].Metrics[name].Unit, Env: env, Invalid: invalid}
		if len(runs) == 1 {
			rw.Value, rw.N = xs[0], runs[0].Metrics[name].N
		} else {
			rw.Value, rw.N, rw.Spread = median(xs), len(xs), spread(xs)
		}
		out = append(out, rw)
	}
	return out
}

func writeLedger(path string, rows []row) error {
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return resilience.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func readLedger(path string) ([]row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rows, nil
}

// verdict judges one metric of one workload against its baseline. worse is
// by how much now is worse (negative when it is better): as a share of the
// baseline, or for an absolute bound in the metric's own unit.
func verdict(j judged, base, now row) (worse float64, v string) {
	worse = now.Value - base.Value
	spreadBase, spreadNow := base.Spread, now.Spread
	if j.Absolute {
		// Spreads are stored as shares of the median.
		spreadBase, spreadNow = spreadBase*base.Value, spreadNow*now.Value
	} else if base.Value != 0 {
		worse /= base.Value
	}
	if j.Better == "higher" {
		worse = -worse
	}
	switch {
	case base.Invalid || now.Invalid:
		return worse, "invalid"
	case spreadBase > j.Bound || spreadNow > j.Bound:
		return worse, "unresolved"
	case worse > j.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// diffLedgers prints one row per judged (workload, metric) that both
// ledgers hold and reports whether any regressed.
func diffLedgers(w io.Writer, base, now []row) (regressed bool) {
	find := func(rows []row, workload, name string) (row, bool) {
		layer, metric := layerOf(name)
		for _, r := range rows {
			if r.Workload == workload && r.Layer == layer && r.Metric == metric {
				return r, true
			}
		}
		return row{}, false
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbaseline\tnow\tworse by\tbound\tverdict\t")
	for _, j := range judgedMetrics() {
		b, okB := find(base, j.Workload, j.Name)
		n, okN := find(now, j.Workload, j.Name)
		if !okB || !okN {
			continue
		}
		worse, v := verdict(j, b, n)
		regressed = regressed || v == "regressed"
		by, bound := fmt.Sprintf("%+.1f%%", 100*worse), fmt.Sprintf("%.0f%%", 100*j.Bound)
		if j.Absolute {
			by, bound = fmt.Sprintf("%+.3f", worse), fmt.Sprintf("%.2f", j.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\t\n", j.Workload, j.Name, j.Unit, b.Value, n.Value, by, bound, v)
	}
	tw.Flush()
	return regressed
}
