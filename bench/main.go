// Command bench is the repository's benchmark: it builds the shipped
// storeserver and brokerserver, runs them as child processes with their
// default flags and segstore on disk, drives them over loopback through
// the repo's typed HTTP clients, checks every answer, and attributes the
// time to a layer with an in-process ladder. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains every
// workload and metric.
//
//	bash bench/run.sh                               every workload end to end, the bench's spans off
//	bash bench/run.sh -trace 1                      every workload traced: per-layer metrics and the ladder
//	bash bench/run.sh -workload query_point         one run, result as the last line
//	bash bench/run.sh -repeat 5                     medians and spreads over seeds seed..seed+4
//	bash bench/run.sh -diff bench/baseline.json     run, then compare with the committed ledger
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// wallCap bounds one run of one workload; what has not finished by then
// fails the run.
const wallCap = 170 * time.Second

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloads := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 1, "seeds every input: sensor noise, query offsets, op order")
	seconds := fs.Float64("seconds", 10, "length of the measurement window of one run")
	trace := fs.Int("trace", 0, "0: end-to-end run, the bench's spans off; 1: traced run, per-layer metrics and the ladder")
	repeat := fs.Int("repeat", 1, "runs per workload, on seeds seed..seed+repeat-1; prints medians and quartiles")
	quick := fs.Bool("quick", false, "smoke run: a tenth of the window; never written to the ledger")
	diff := fs.String("diff", "", "baseline ledger to compare the end-to-end metrics with; exit 1 on any regression")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	var selected []string
	for _, w := range strings.Split(*workloads, ",") {
		known := false
		for _, name := range workloadNames {
			known = known || name == w
		}
		if !known {
			return 2, fmt.Errorf("bench: unknown workload %q (have %s)", w, strings.Join(workloadNames, ", "))
		}
		selected = append(selected, w)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("bench: -trace takes 0 or 1")
	}
	traced := *trace == 1
	if *seconds <= 0 || *repeat < 1 {
		return 2, fmt.Errorf("bench: -seconds and -repeat must be positive")
	}
	if *diff != "" && traced {
		return 2, fmt.Errorf("bench: -diff judges end-to-end runs; drop -trace 1")
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *quick {
		window /= 10
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		return 1, err
	}
	defer e.cleanup()
	if err := e.buildServers(ctx); err != nil {
		return 1, err
	}

	var ledger []row
	var last *result
	where := currentEnv(e.root, *seed)
	var tr *tracer // nil keeps the bench's spans off
	ledgerName := "ledger.json"
	if traced {
		tr, ledgerName = newTracer(), "ledger.trace.json"
	}
	allCorrect := true
	for _, workload := range selected {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			in, err := newInputs(*seed + int64(i))
			if err != nil {
				return 1, err
			}
			runCtx, cancel := context.WithTimeout(ctx, wallCap)
			res, err := runWorkload(runCtx, e, in, workload, window, tr)
			cancel()
			if err != nil {
				return 1, err
			}
			printResult(res)
			runs = append(runs, res)
			allCorrect = allCorrect && res.Correct
			last = res
		}
		if *repeat > 1 {
			printRepeats(runs)
		}
		ledger = append(ledger, rowsOf(runs, where)...)
	}

	if traced {
		if err := tr.write(filepath.Join(e.outDir, "trace.json")); err != nil {
			return 1, err
		}
	}
	if !*quick {
		if err := writeLedger(filepath.Join(e.outDir, ledgerName), ledger); err != nil {
			return 1, err
		}
	}
	code := 0
	if *diff != "" {
		base, err := readLedger(*diff)
		if err != nil {
			return 1, err
		}
		if diffLedgers(os.Stdout, base, ledger) {
			code = 1
		}
	}
	if len(selected) == 1 && *repeat == 1 {
		// The driver's contract: the result of the one run as the last line.
		fmt.Println(contractLine(last))
	} else if !allCorrect {
		code = 1
	}
	return code, nil
}

// contractLine renders a run the way the benchmark driver reads it: the
// end-to-end metrics of an end-to-end run, the per-layer metrics of a
// traced one.
func contractLine(r *result) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	declared := e2eMetrics
	if r.Trace {
		declared = layerMetrics
	}
	for _, spec := range declared {
		v := r.Metrics[spec.Name]
		out.Metrics[spec.Name] = metric{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats and strings; NaN would be a bug in the accounting
	}
	return string(data)
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		li, _ := layerOf(names[i])
		lj, _ := layerOf(names[j])
		if (li == "e2e") != (lj == "e2e") {
			return li == "e2e"
		}
		return names[i] < names[j]
	})
	return names
}

func printResult(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  %s  attempted %d  failed %d  correct %v", r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	if r.Invalid {
		fmt.Print("  INVALID")
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	shown := ""
	for _, name := range sortedNames(r.Metrics) {
		// Ahead of each layer's numbers, what they were predicted to move.
		if layer, _ := layerOf(name); layer != shown {
			shown = layer
			if l, ok := layerSpecOf(layer); ok && len(l.Moves) > 0 {
				line := fmt.Sprintf("  [%s should move %s on %s", layer, strings.Join(l.Moves, ", "), strings.Join(l.On, ", "))
				if len(l.NotOn) > 0 {
					line += "; not on " + strings.Join(l.NotOn, ", ")
				}
				fmt.Fprintln(tw, line+"]")
			}
		}
		v := r.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", name, v.Value, v.Unit, v.N)
	}
	tw.Flush()
	var counts []string
	for name, n := range r.Counts {
		counts = append(counts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(counts)
	fmt.Println("  counts:", strings.Join(counts, " "))
	for _, note := range r.Notes {
		fmt.Println("  note:", note)
	}
}

func printRepeats(runs []*result) {
	fmt.Printf("\n== %s over %d runs: median, quartiles, spread (IQR / median)\n", runs[0].Workload, len(runs))
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	for _, name := range sortedNames(runs[0].Metrics) {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.Metrics[name].Value)
		}
		q1, q2, q3 := quartiles(xs)
		line := fmt.Sprintf("  %s\t%.6g\t[%.6g, %.6g]\t%.1f%%", name, q2, q1, q3, 100*spread(xs))
		for _, j := range judgedMetrics() {
			if j.Workload == runs[0].Workload && j.Name == name && !j.Absolute {
				line += fmt.Sprintf("\tbound %.0f%%", 100*j.Bound)
			}
		}
		fmt.Fprintln(tw, line)
	}
	tw.Flush()
}
