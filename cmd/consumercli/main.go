// Command consumercli is a data consumer's command-line tool: it registers
// on the broker, searches for data contributors whose privacy rules share
// enough data, connects to their stores (the broker vaults the per-store
// API keys), and downloads data directly from the stores using the query
// mini-language.
//
// Usage:
//
//	consumercli -broker http://localhost:8080 -name bob \
//	    search -sensors ECG,Respiration -label work
//	consumercli -broker http://localhost:8080 -name bob -key <key> \
//	    query -contributor alice -q "channels(ECG) limit(10)"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/federation"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/query"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/segstore"
	"sensorsafe/internal/stream"
	"sensorsafe/internal/timeutil"
)

func main() {
	brokerURL := flag.String("broker", "http://localhost:8080", "broker base URL")
	name := flag.String("name", "bob", "consumer name")
	key := flag.String("key", "", "existing broker API key (skips registration)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: consumercli [flags] <directory|search|query|cohort|follow|trace|storestats|rulestats|health> [subflags]")
		os.Exit(2)
	}
	bc := &httpapi.BrokerClient{BaseURL: *brokerURL}
	ctx := context.Background()

	// Diagnostic commands must not mutate server state, so they skip the
	// consumer auto-registration (health still uses -key when given, to
	// enumerate the per-store fleet through the directory).
	apiKey := auth.APIKey(*key)
	if apiKey == "" && flag.Arg(0) != "trace" && flag.Arg(0) != "storestats" && flag.Arg(0) != "rulestats" && flag.Arg(0) != "health" {
		u, err := bc.RegisterConsumerCtx(ctx, *name)
		if err != nil {
			log.Fatalf("consumercli: register: %v", err)
		}
		apiKey = u.Key
		fmt.Printf("registered %s\nAPI key: %s\n", u.Name, apiKey)
	}

	switch flag.Arg(0) {
	case "directory":
		dir, err := bc.DirectoryCtx(ctx, apiKey)
		if err != nil {
			log.Fatalf("consumercli: %v", err)
		}
		for _, e := range dir {
			fmt.Printf("%-20s %-30s %d rules\n", e.Name, e.StoreAddr, e.RuleCount)
		}

	case "search":
		fs := flag.NewFlagSet("search", flag.ExitOnError)
		sensors := fs.String("sensors", "", "comma-separated sensors that must be shared raw")
		label := fs.String("label", "", "contributor-defined location label (e.g. work)")
		days := fs.String("days", "", "comma-separated weekdays (e.g. Mon,Tue)")
		hours := fs.String("hours", "", "window as from,to (e.g. 9:00am,6:00pm)")
		contexts := fs.String("while", "", "comma-separated active contexts (e.g. Drive)")
		_ = fs.Parse(flag.Args()[1:])

		q := &broker.SearchQuery{LocationLabel: *label}
		if *sensors != "" {
			q.Sensors = strings.Split(*sensors, ",")
		}
		if *contexts != "" {
			q.ActiveContexts = strings.Split(*contexts, ",")
		}
		if *days != "" || *hours != "" {
			var dayList, hourList []string
			if *days != "" {
				dayList = strings.Split(*days, ",")
			}
			if *hours != "" {
				hourList = strings.Split(*hours, ",")
			}
			rep, err := timeutil.ParseRepeated(dayList, hourList)
			if err != nil {
				log.Fatalf("consumercli: %v", err)
			}
			q.RepeatTime = rep
		}
		names, err := bc.SearchCtx(ctx, apiKey, q)
		if err != nil {
			log.Fatalf("consumercli: %v", err)
		}
		if len(names) == 0 {
			fmt.Println("no contributors share enough data for this query")
			return
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "query":
		fs := flag.NewFlagSet("query", flag.ExitOnError)
		contributor := fs.String("contributor", "", "contributor to query")
		qtext := fs.String("q", "", "query in the mini-language (empty = everything)")
		summary := fs.Bool("summary", false, "print aggregate statistics instead of spans")
		_ = fs.Parse(flag.Args()[1:])
		if *contributor == "" {
			log.Fatal("consumercli: -contributor is required")
		}
		cred, err := bc.ConnectCtx(ctx, apiKey, *contributor)
		if err != nil {
			log.Fatalf("consumercli: connect: %v", err)
		}
		sc := &httpapi.StoreClient{BaseURL: cred.StoreAddr}
		rels, err := sc.QueryTextCtx(ctx, cred.Key, *qtext)
		if err != nil {
			log.Fatalf("consumercli: query: %v", err)
		}
		if *summary {
			sum := abstraction.Summarize(rels)
			fmt.Printf("%d releases, %d raw samples, %s .. %s\n",
				sum.Releases, sum.RawSamples,
				sum.Earliest.Format("2006-01-02 15:04:05"), sum.Latest.Format("15:04:05"))
			for ch, st := range sum.Channels {
				fmt.Printf("  %-14s %7d samples  min %.3f  max %.3f  mean %.3f\n",
					ch, st.Samples, st.Min, st.Max, st.Mean)
			}
			for _, ctx := range sum.TopContexts() {
				fmt.Printf("  context %-12s %v\n", ctx, sum.Contexts[ctx])
			}
			return
		}
		fmt.Printf("%d releases from %s\n", len(rels), *contributor)
		for i, rel := range rels {
			loc := "location withheld"
			if rel.Location.Point != nil {
				loc = rel.Location.Point.String()
			} else if rel.Location.Text != "" {
				loc = rel.Location.Text
			}
			var span string
			if rel.Start.IsZero() {
				span = "time withheld"
			} else {
				span = fmt.Sprintf("%s .. %s (%s)", rel.Start.Format("15:04:05"), rel.End.Format("15:04:05"), rel.TimeGranularity)
			}
			chans := "no raw channels"
			if rel.Segment != nil {
				chans = fmt.Sprintf("%v, %d samples", rel.Segment.Channels, rel.Segment.NumSamples())
			}
			var ctxs []string
			for _, c := range rel.Contexts {
				ctxs = append(ctxs, c.Context)
			}
			fmt.Printf("[%3d] %s | %s | %s | contexts %v\n", i, span, loc, chans, ctxs)
		}

	case "cohort":
		fs := flag.NewFlagSet("cohort", flag.ExitOnError)
		contributors := fs.String("contributors", "", "comma-separated explicit cohort")
		list := fs.String("list", "", "saved contributor list name")
		study := fs.String("study", "", "study whose enrolled contributor roster is the cohort")
		sensors := fs.String("sensors", "", "search: sensors that must be shared raw")
		label := fs.String("label", "", "search: contributor-defined location label")
		contexts := fs.String("while", "", "search: comma-separated active contexts")
		qtext := fs.String("q", "", "per-store data query in the mini-language (empty = everything)")
		limit := fs.Int("limit", 0, "releases per page (0 = everything)")
		cursor := fs.String("cursor", "", "resume cursor from a previous page")
		par := fs.Int("par", 0, "max concurrent store fetches (0 = default 16)")
		timeout := fs.Duration("timeout", 10*time.Second, "per-store deadline")
		hedge := fs.Duration("hedge", 0, "hedge stragglers after this delay (0 = off)")
		_ = fs.Parse(flag.Args()[1:])

		var cohort federation.Cohort
		switch {
		case *contributors != "":
			cohort.Contributors = strings.Split(*contributors, ",")
		case *list != "":
			cohort.List = *list
		case *study != "":
			cohort.Study = *study
		default:
			sq := &broker.SearchQuery{LocationLabel: *label}
			if *sensors != "" {
				sq.Sensors = strings.Split(*sensors, ",")
			}
			if *contexts != "" {
				sq.ActiveContexts = strings.Split(*contexts, ",")
			}
			cohort.Search = sq
		}
		var dq *query.Query
		if *qtext != "" {
			var err error
			if dq, err = query.Parse(*qtext); err != nil {
				log.Fatalf("consumercli: %v", err)
			}
		}
		eng := httpapi.NewFederation(bc, apiKey, federation.Options{
			Concurrency:     *par,
			PerStoreTimeout: *timeout,
			HedgeAfter:      *hedge,
		})
		// Root span for the whole page: broker resolution, every store's
		// fan-out leg, and the stores' release decisions all join this trace
		// (inspect with `consumercli trace -from <server> <id>`).
		ctx, span, stop := obs.Span(ctx, "consumer.cohort")
		res, err := eng.CohortQuery(ctx, &federation.Request{
			Cohort: cohort, Query: dq, Limit: *limit, Cursor: *cursor,
		})
		stop(err)
		if err != nil {
			log.Fatalf("consumercli: cohort: %v", err)
		}
		if tid := span.TraceIDString(); tid != "" {
			fmt.Printf("trace: %s\n", tid)
		}
		for i, rel := range res.Releases {
			fmt.Printf("%-14s ", rel.Contributor)
			printRelease(i, rel)
		}
		fmt.Printf("\n%d releases from %d stores\n", len(res.Releases), len(res.Reports))
		for _, rep := range res.Reports {
			line := fmt.Sprintf("  %-20s %-30s %-11s %3d released  %6.1fms",
				rep.Contributor, rep.StoreAddr, rep.Outcome, rep.Releases,
				float64(rep.Latency.Microseconds())/1000)
			if rep.Remaining > 0 {
				line += fmt.Sprintf("  +%d behind cursor", rep.Remaining)
			}
			if rep.Hedged {
				line += "  hedged"
				if rep.HedgeWon {
					line += " (won)"
				}
			}
			if rep.Error != "" {
				line += "  " + rep.Error
			}
			fmt.Println(line)
		}
		if res.Partial {
			fmt.Println("PARTIAL RESULT: some stores are missing (see outcomes above)")
		}
		if res.Cursor != "" {
			fmt.Printf("next page: -cursor %s\n", res.Cursor)
		}

	case "follow":
		fs := flag.NewFlagSet("follow", flag.ExitOnError)
		contributor := fs.String("contributor", "", "contributor to follow live")
		channels := fs.String("channels", "", "comma-separated channels (empty = everything the rules release)")
		cursor := fs.String("cursor", "", "resume cursor from a previous session")
		wait := fs.Duration("wait", 30*time.Second, "long-poll wait per round trip")
		_ = fs.Parse(flag.Args()[1:])
		if *contributor == "" {
			log.Fatal("consumercli: -contributor is required")
		}
		cred, err := bc.ConnectCtx(ctx, apiKey, *contributor)
		if err != nil {
			log.Fatalf("consumercli: connect: %v", err)
		}
		sc := &httpapi.StoreClient{BaseURL: cred.StoreAddr}
		var chans []string
		if *channels != "" {
			chans = strings.Split(*channels, ",")
		}
		info, err := sc.SubscribeCtx(ctx, cred.Key, *contributor, chans)
		if err != nil {
			log.Fatalf("consumercli: subscribe: %v", err)
		}
		cur := info.Cursor
		if *cursor != "" {
			cur = *cursor
		}
		fmt.Printf("following %s (subscription %s, cursor %s; resumed=%v)\n",
			*contributor, info.ID, cur, info.Resumed)
		for {
			b, err := sc.NextCtx(ctx, cred.Key, info.ID, cur, *wait)
			if err != nil {
				log.Fatalf("consumercli: next: %v", err)
			}
			for _, ev := range b.Events {
				switch ev.Kind {
				case stream.KindGap:
					fmt.Printf("[gap] %d segment(s) missed while disconnected or lagging\n", ev.Dropped)
				case stream.KindBye:
					fmt.Printf("store closed the stream; resume later with cursor %s\n", ev.Cursor)
					return
				default:
					for _, rel := range ev.Releases {
						printRelease(int(ev.Seq), rel)
					}
				}
			}
			cur = b.Cursor
		}

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		from := fs.String("from", "", "server whose /debug/traces to read (default: the broker)")
		_ = fs.Parse(flag.Args()[1:])
		if fs.NArg() < 1 {
			log.Fatal("consumercli: usage: trace [-from http://store:8081] <trace-id>")
		}
		base := *from
		if base == "" {
			base = *brokerURL
		}
		spans, err := fetchTrace(ctx, base, fs.Arg(0))
		if err != nil {
			log.Fatalf("consumercli: trace: %v", err)
		}
		printTraceTree(spans)

	case "storestats":
		fs := flag.NewFlagSet("storestats", flag.ExitOnError)
		storeURL := fs.String("store", "", "store base URL whose /debug/segstore to read")
		_ = fs.Parse(flag.Args()[1:])
		if *storeURL == "" {
			log.Fatal("consumercli: usage: storestats -store http://store:8081")
		}
		if err := printStoreStats(ctx, *storeURL); err != nil {
			log.Fatalf("consumercli: storestats: %v", err)
		}

	case "rulestats":
		fs := flag.NewFlagSet("rulestats", flag.ExitOnError)
		storeURL := fs.String("store", "", "store base URL whose /debug/ruleindex to read")
		_ = fs.Parse(flag.Args()[1:])
		if *storeURL == "" {
			log.Fatal("consumercli: usage: rulestats -store http://store:8081")
		}
		if err := printRuleStats(ctx, *storeURL); err != nil {
			log.Fatalf("consumercli: rulestats: %v", err)
		}

	case "health":
		fs := flag.NewFlagSet("health", flag.ExitOnError)
		_ = fs.Parse(flag.Args()[1:])
		if err := printHealth(bc, apiKey); err != nil {
			log.Fatalf("consumercli: health: %v", err)
		}

	default:
		fmt.Fprintf(os.Stderr, "consumercli: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}

// printHealth surveys the fleet: the broker's /healthz plus, when a key
// allows reading the directory, every store's — showing each server's
// degradation state and pressure, or why it could not be reached.
func printHealth(bc *httpapi.BrokerClient, key auth.APIKey) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	probe := func(kind, name, base string, fetch func() (httpapi.Health, error)) {
		h, err := fetch()
		if err != nil {
			fmt.Printf("%-8s %-20s %-30s unreachable (%v)\n", kind, name, base, err)
			return
		}
		deg := h.Degradation
		if deg == "" {
			deg = "unknown"
		}
		fmt.Printf("%-8s %-20s %-30s %s, %s (pressure %.2f), up %s\n",
			kind, name, base, h.Status, deg, h.Pressure,
			(time.Duration(h.UptimeS) * time.Second).Round(time.Second))
	}

	probe("broker", "-", bc.BaseURL, func() (httpapi.Health, error) { return bc.HealthCtx(ctx) })
	if key == "" {
		fmt.Println("(no -key: stores not enumerated; pass a broker API key to survey the fleet)")
		return nil
	}
	dir, err := bc.DirectoryCtx(ctx, key)
	if err != nil {
		return fmt.Errorf("directory: %w", err)
	}
	seen := make(map[string]bool)
	for _, e := range dir {
		if e.StoreAddr == "" || seen[e.StoreAddr] {
			continue
		}
		seen[e.StoreAddr] = true
		sc := &httpapi.StoreClient{BaseURL: e.StoreAddr}
		probe("store", e.Name, e.StoreAddr, func() (httpapi.Health, error) { return sc.HealthCtx(ctx) })
	}
	return nil
}

// printStoreStats renders a store's segment-engine internals from its
// /debug/segstore endpoint: per-level file counts, live/dead records,
// WAL size, and last compaction.
func printStoreStats(ctx context.Context, base string) error {
	var st segstore.Stats
	if err := httpapi.GetJSON(ctx, nil, base, "/debug/segstore", httpapi.MaxBodyBytes, &st); err != nil {
		var se *resilience.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return fmt.Errorf("%w: the store runs the in-memory engine (no segstore stats)", err)
		}
		return err
	}
	fmt.Printf("segstore %s\n", st.Dir)
	fmt.Printf("  live records      %d (%d on disk, %d in memtable, %d tombstoned)\n",
		st.LiveRecords, st.DiskRecords, st.MemtableRecords, st.Tombstones)
	fmt.Printf("  memtable          %d bytes (%d sealed awaiting flush)\n", st.MemtableBytes, st.SealedMemtables)
	fmt.Printf("  wal               %d files, %d bytes (%d records replayed at open)\n",
		st.WALFiles, st.WALBytes, st.WALReplayed)
	for _, l := range st.Levels {
		dead := ""
		if l.RawBytes > 0 {
			dead = fmt.Sprintf(", %.1fx raw", float64(l.RawBytes)/float64(max64(l.Bytes, 1)))
		}
		fmt.Printf("  L%d                %d files, %d records, %d bytes%s\n",
			l.Level, l.Files, l.Records, l.Bytes, dead)
	}
	fmt.Printf("  flushes           %d\n", st.Flushes)
	fmt.Printf("  compactions       %d (%d wave-merged, %d reclaimed)\n",
		st.Compactions, st.MergedRecords, st.ReclaimedTombs)
	if !st.LastCompaction.IsZero() {
		fmt.Printf("  last compaction   %s (%d ms)\n", st.LastCompaction.Format(time.RFC3339), st.LastCompactMS)
	}
	if st.LastError != "" {
		fmt.Printf("  last error        %s\n", st.LastError)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// printRuleStats renders a store's per-contributor compiled rule-index
// state from its /debug/ruleindex endpoint: rule count, compile time,
// decision-cache effectiveness, and index shape.
func printRuleStats(ctx context.Context, base string) error {
	var stats map[string]ruleindex.Stats
	if err := httpapi.GetJSON(ctx, nil, base, "/debug/ruleindex", httpapi.MaxBodyBytes, &stats); err != nil {
		return err
	}
	if len(stats) == 0 {
		fmt.Println("no contributors with compiled rule indexes")
		return nil
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		fmt.Printf("%s (rule version %d)\n", name, st.Version)
		fmt.Printf("  rules             %d (compiled in %s)\n",
			st.Rules, (time.Duration(st.CompileMicros) * time.Microsecond).String())
		fmt.Printf("  decision cache    %d/%d entries, %.1f%% hit ratio (%d hits, %d misses, %d evictions)\n",
			st.CacheEntries, st.CacheCapacity, 100*st.HitRatio,
			st.CacheHits, st.CacheMisses, st.CacheEvictions)
		fmt.Printf("  index shape       %d regions over %d grid cells, %d intervals, %d recurring rules\n",
			st.Regions, st.GridCells, st.Intervals, st.RepeatRules)
	}
	return nil
}

// fetchTrace downloads one completed trace from a server's /debug/traces
// endpoint. Traces are per-process: a cohort query's broker spans live on
// the broker, each store's enforcement spans on that store — all under the
// same trace ID.
func fetchTrace(ctx context.Context, base, id string) ([]*trace.SpanData, error) {
	var body struct {
		TraceID string            `json:"traceId"`
		Spans   []*trace.SpanData `json:"spans"`
	}
	if err := httpapi.GetJSON(ctx, nil, base, "/debug/traces?id="+url.QueryEscape(id), httpapi.MaxBodyBytes, &body); err != nil {
		var se *resilience.StatusError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("%w (trace evicted or never sampled?)", err)
		}
		return nil, err
	}
	return body.Spans, nil
}

// printTraceTree renders the span tree, children indented under parents.
// Spans whose parent never reported to this server (it lives in another
// process) print as roots.
func printTraceTree(spans []*trace.SpanData) {
	byID := make(map[string]*trace.SpanData, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	children := map[string][]*trace.SpanData{}
	var roots []*trace.SpanData
	for _, s := range spans {
		if s.ParentID != "" && byID[s.ParentID] != nil {
			children[s.ParentID] = append(children[s.ParentID], s)
			continue
		}
		roots = append(roots, s)
	}
	order := func(ss []*trace.SpanData) {
		sort.Slice(ss, func(i, j int) bool {
			if !ss[i].Start.Equal(ss[j].Start) {
				return ss[i].Start.Before(ss[j].Start)
			}
			return ss[i].SpanID < ss[j].SpanID
		})
	}
	var walk func(s *trace.SpanData, depth int)
	walk = func(s *trace.SpanData, depth int) {
		pad := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%-*s %8.2fms", pad, 30-2*depth, s.Name, s.DurationMS)
		if s.Status != "ok" {
			line += "  " + s.Status
			if s.Error != "" {
				line += ": " + s.Error
			}
		}
		if len(s.Attrs) > 0 {
			line += "  " + formatAttrs(s.Attrs)
		}
		fmt.Println(line)
		for _, ev := range s.Events {
			evLine := fmt.Sprintf("%s  · %s", pad, ev.Name)
			if len(ev.Attrs) > 0 {
				evLine += "  " + formatAttrs(ev.Attrs)
			}
			fmt.Println(evLine)
		}
		kids := children[s.SpanID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	order(roots)
	for _, r := range roots {
		walk(r, 0)
	}
}

// formatAttrs renders span attributes deterministically (sorted keys).
func formatAttrs(attrs map[string]any) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, attrs[k])
	}
	return strings.Join(parts, " ")
}

// printRelease renders one released span like the query output.
func printRelease(seq int, rel *abstraction.Release) {
	loc := "location withheld"
	if rel.Location.Point != nil {
		loc = rel.Location.Point.String()
	} else if rel.Location.Text != "" {
		loc = rel.Location.Text
	}
	span := "time withheld"
	if !rel.Start.IsZero() {
		span = fmt.Sprintf("%s .. %s (%s)", rel.Start.Format("15:04:05"), rel.End.Format("15:04:05"), rel.TimeGranularity)
	}
	chans := "no raw channels"
	if rel.Segment != nil {
		chans = fmt.Sprintf("%v, %d samples", rel.Segment.Channels, rel.Segment.NumSamples())
	}
	var ctxs []string
	for _, c := range rel.Contexts {
		ctxs = append(ctxs, c.Context)
	}
	fmt.Printf("[%3d] %s | %s | %s | contexts %v\n", seq, span, loc, chans, ctxs)
}
