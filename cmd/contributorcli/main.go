// Command contributorcli is a data contributor's command-line tool against
// their remote data store: manage privacy rules and labeled places, review
// their own data, inspect the access-audit trail ("who read my data?"),
// mine rule recommendations from their own recordings, and rotate a leaked
// API key.
//
// Usage:
//
//	contributorcli -store http://localhost:8081 -name alice register
//	contributorcli -store ... -key <key> rules -set rules.json
//	contributorcli -store ... -key <key> place -label home -lat 34.02 -lon -118.49 -radius 200
//	contributorcli -store ... -key <key> audit
//	contributorcli -store ... -key <key> recommend
//	contributorcli -store ... -key <key> rotate
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/query"
)

func main() {
	storeURL := flag.String("store", "http://localhost:8081", "remote data store base URL")
	name := flag.String("name", "alice", "contributor name (register only)")
	key := flag.String("key", "", "API key")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: contributorcli [flags] <register|rules|place|review|audit|recommend|rotate> [subflags]")
		os.Exit(2)
	}
	sc := &httpapi.StoreClient{BaseURL: *storeURL}
	ctx := context.Background()
	apiKey := auth.APIKey(*key)

	switch flag.Arg(0) {
	case "register":
		u, err := sc.RegisterCtx(ctx, *name, "contributor")
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		fmt.Printf("registered %s\nAPI key: %s\n(keep this private — it acts as username and password)\n", u.Name, u.Key)

	case "rules":
		fs := flag.NewFlagSet("rules", flag.ExitOnError)
		set := fs.String("set", "", "rules JSON file to install (empty = print current rules)")
		_ = fs.Parse(flag.Args()[1:])
		if *set != "" {
			data, err := os.ReadFile(*set)
			if err != nil {
				log.Fatalf("contributorcli: %v", err)
			}
			if err := sc.SetRulesCtx(ctx, apiKey, data); err != nil {
				log.Fatalf("contributorcli: %v", err)
			}
			fmt.Println("rules installed and replicated to the broker")
			return
		}
		policy, err := sc.PolicyCtx(ctx, apiKey)
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		fmt.Println(string(policy.Rules))

	case "place":
		fs := flag.NewFlagSet("place", flag.ExitOnError)
		label := fs.String("label", "", "place label (e.g. home, work)")
		lat := fs.Float64("lat", 0, "center latitude")
		lon := fs.Float64("lon", 0, "center longitude")
		radius := fs.Float64("radius", 150, "approximate radius in meters")
		_ = fs.Parse(flag.Args()[1:])
		if *label == "" {
			log.Fatal("contributorcli: -label is required")
		}
		d := *radius / 111320.0 // meters → degrees (latitude)
		rect, err := geo.NewRect(
			geo.Point{Lat: *lat - d, Lon: *lon - d},
			geo.Point{Lat: *lat + d, Lon: *lon + d})
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		if err := sc.DefinePlaceCtx(ctx, apiKey, *label, geo.Region{Rect: rect}); err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		fmt.Printf("place %q defined\n", *label)

	case "review":
		fs := flag.NewFlagSet("review", flag.ExitOnError)
		qtext := fs.String("q", "", "query in the mini-language")
		_ = fs.Parse(flag.Args()[1:])
		q := &query.Query{}
		if *qtext != "" {
			parsed, err := query.Parse(*qtext)
			if err != nil {
				log.Fatalf("contributorcli: %v", err)
			}
			q = parsed
		}
		segs, err := sc.QueryOwnCtx(ctx, apiKey, q)
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		fmt.Printf("%d stored wave segment(s)\n", len(segs))
		for i, seg := range segs {
			var ctxs []string
			for _, a := range seg.Annotations {
				ctxs = append(ctxs, a.Context)
			}
			fmt.Printf("[%3d] %s .. %s %v %d samples contexts=%v\n",
				i, seg.StartTime().Format(time.RFC3339), seg.EndTime().Format(time.RFC3339),
				seg.Channels, seg.NumSamples(), ctxs)
		}

	case "audit":
		fs := flag.NewFlagSet("audit", flag.ExitOnError)
		consumer := fs.String("consumer", "", "filter to one consumer")
		limit := fs.Int("limit", 20, "max events to show")
		summary := fs.Bool("summary", false, "show per-consumer aggregates instead of events")
		_ = fs.Parse(flag.Args()[1:])
		if *summary {
			sums, err := sc.AuditSummaryCtx(ctx, apiKey)
			if err != nil {
				log.Fatalf("contributorcli: %v", err)
			}
			fmt.Printf("%-12s %9s %5s %11s %9s %10s\n", "consumer", "accesses", "raw", "abstracted", "withheld", "data span")
			for _, s := range sums {
				fmt.Printf("%-12s %9d %5d %11d %9d %10s\n",
					s.Consumer, s.Accesses, s.Raw, s.Abstracted, s.Withheld, s.DataSpan.Round(time.Second))
			}
			return
		}
		events, err := sc.AuditCtx(ctx, apiKey, *consumer, time.Time{}, *limit)
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		for _, e := range events {
			fmt.Printf("%s %-10s %-10s %s..%s channels=%v contexts=%v\n",
				e.At.Format("15:04:05"), e.Consumer, e.Outcome,
				e.SpanStart.Format("15:04:05"), e.SpanEnd.Format("15:04:05"),
				e.Channels, e.Contexts)
		}

	case "recommend":
		sugs, err := sc.RecommendCtx(ctx, apiKey, 0, 0)
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		if len(sugs) == 0 {
			fmt.Println("no rule suggestions — nothing sensitive co-occurs strongly in your data")
			return
		}
		for i, s := range sugs {
			fmt.Printf("suggestion %d: %s\n  rule: %s\n", i+1, s.Reason, s.RuleJSON)
		}
		fmt.Println("\nappend any rule above to your rule set and re-run 'rules -set' to install it")

	case "rotate":
		fresh, err := sc.RotateKeyCtx(ctx, apiKey)
		if err != nil {
			log.Fatalf("contributorcli: %v", err)
		}
		fmt.Printf("key rotated; new API key: %s\n(the old key no longer works anywhere)\n", fresh)

	default:
		fmt.Fprintf(os.Stderr, "contributorcli: unknown command %q\n", flag.Arg(0))
		os.Exit(2)
	}
}
