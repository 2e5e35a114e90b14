// Command phonesim simulates a data contributor's smartphone against a
// running remote data store: it registers the contributor (or reuses a
// key), installs privacy rules from a file, then records and uploads a
// scripted "day in the life" — optionally with privacy-rule-aware
// collection (§5.3) so unshareable data is never collected.
//
// Usage:
//
//	phonesim -store http://localhost:8081 -contributor alice \
//	    -rules rules.json -scale 0.1 -rule-aware
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
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/phone"
	"sensorsafe/internal/sensors"
)

func main() {
	storeURL := flag.String("store", "http://localhost:8081", "remote data store base URL")
	contributor := flag.String("contributor", "alice", "contributor name to register")
	key := flag.String("key", "", "existing API key (skips registration)")
	rulesPath := flag.String("rules", "", "privacy rules JSON file to install (Fig. 4 shape)")
	scale := flag.Float64("scale", 0.1, "day-in-the-life duration scale (1.0 ≈ 66 min)")
	ruleAware := flag.Bool("rule-aware", false, "enable privacy-rule-aware collection")
	outboxDir := flag.String("outbox", "", "durable outbox directory: failed upload batches spill here and drain on the next run")
	live := flag.Bool("live", false, "pace uploads at scripted wall-clock (scaled by -speedup) instead of one burst")
	speedup := flag.Float64("speedup", 60, "wall-clock compression factor for -live (60 = one scripted minute per second)")
	lat := flag.Float64("lat", 34.0250, "origin latitude")
	lon := flag.Float64("lon", -118.4950, "origin longitude")
	flag.Parse()

	client := &httpapi.StoreClient{BaseURL: *storeURL}
	ctx := context.Background()

	apiKey := *key
	if apiKey == "" {
		u, err := client.RegisterCtx(ctx, *contributor, "contributor")
		if err != nil {
			log.Fatalf("phonesim: register: %v", err)
		}
		apiKey = string(u.Key)
		fmt.Printf("registered %s\nAPI key: %s\n", u.Name, apiKey)
	}

	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Fatalf("phonesim: %v", err)
		}
		if err := client.SetRulesCtx(ctx, auth.APIKey(apiKey), data); err != nil {
			log.Fatalf("phonesim: set rules: %v", err)
		}
		fmt.Println("privacy rules installed")
	}

	origin := geo.Point{Lat: *lat, Lon: *lon}
	sc := sensors.DayInTheLife(time.Now().UTC().Truncate(time.Minute), origin, *scale)
	p := &phone.Phone{
		Contributor: *contributor,
		Key:         auth.APIKey(apiKey),
		Store:       client,
		RuleAware:   *ruleAware,
	}
	if *outboxDir != "" {
		p.Outbox = &phone.Outbox{Dir: *outboxDir}
	}
	if *live {
		if *speedup <= 0 {
			log.Fatalf("phonesim: -speedup must be positive")
		}
		// Each packet uploads on its own, spaced by its scripted duration
		// compressed by -speedup, so a subscribed consumer sees a stream
		// of deliveries instead of one burst.
		p.BatchPackets = 1
		p.Pace = func(d time.Duration) {
			time.Sleep(time.Duration(float64(d) / *speedup))
		}
		fmt.Printf("live replay at %gx\n", *speedup)
	}
	// Root span for the whole session: the rule download, the outbox drain
	// and every upload carry a traceparent that descends from it, so the
	// store's /debug/traces shows the session as one tree.
	ctx, span, stop := obs.Span(ctx, "phone.session")
	span.SetAttr(trace.String("contributor", *contributor))
	rep, err := p.RunCtx(ctx, sc)
	stop(err)
	if err != nil {
		log.Fatalf("phonesim: %v", err)
	}
	fmt.Printf("day simulated: %v of data (trace %s)\n", sc.Duration(), span.TraceIDString())
	fmt.Printf("packets: %d total, %d uploaded, %d skipped (sensors off), %d discarded (context)\n",
		rep.PacketsTotal, rep.PacketsUploaded, rep.PacketsSkipped, rep.PacketsDiscarded)
	fmt.Printf("samples uploaded: %d/%d (%.0f%%), %d bytes, %d store records\n",
		rep.SamplesUploaded, rep.SamplesTotal, rep.UploadFraction()*100, rep.BytesUploaded, rep.RecordsWritten)
	if rep.BatchesSpilled > 0 || rep.BatchesRecovered > 0 {
		fmt.Printf("outbox: %d batches spilled (%d samples), %d recovered from earlier runs\n",
			rep.BatchesSpilled, rep.SamplesSpilled, rep.BatchesRecovered)
	}
}
