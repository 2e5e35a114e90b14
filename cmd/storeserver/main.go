// Command storeserver runs one SensorSafe remote data store: the
// per-contributor (or institutional) server that ingests sensor uploads,
// enforces privacy rules on every consumer query, and synchronizes rule
// replicas to the broker.
//
// Usage:
//
//	storeserver -listen :8081 -name http://localhost:8081 \
//	    -dir ./data/store1 -broker http://localhost:8080
//
// With -broker set, contributor registrations and rule changes propagate to
// the broker over its HTTP API, exactly as in a multi-host deployment, and
// an anti-entropy round every 30s pushes each replica the broker reports
// as behind and registers each contributor it does not know, so rule
// replicas and the directory converge after a broker outage or a crash
// cut a push off.
//
// With -dir set, segments live in the persistent columnar engine
// (internal/segstore) under <dir>/segstore; tune it with -segstore-dir,
// -memtable-bytes, and -compact-interval, and inspect it at
// /debug/segstore (or `consumercli storestats`).
//
// The store exposes Prometheus metrics at /metrics and a JSON health report
// at /healthz; pass -pprof to additionally mount net/http/pprof profiling
// handlers under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensorsafe/internal/datastore"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/overload"
)

// shutdownGrace bounds how long in-flight requests may run after SIGINT/
// SIGTERM before the listener is torn down.
const shutdownGrace = 5 * time.Second

func main() {
	listen := flag.String("listen", ":8081", "address to listen on")
	name := flag.String("name", "", "public address of this store (defaults to http://localhost<listen>)")
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	brokerURL := flag.String("broker", "", "broker base URL for rule sync and contributor registration")
	maxSamples := flag.Int("max-segment-samples", 0, "wave-segment size cap (0 = default)")
	segstoreDir := flag.String("segstore-dir", "", "segment-engine directory (default <dir>/segstore; only meaningful with -dir)")
	memtableBytes := flag.Int64("memtable-bytes", 0, "segment-engine hot-tail budget before flushing to disk (0 = default 4MiB)")
	compactInterval := flag.Duration("compact-interval", 30*time.Second, "segment-engine background compaction period (0 = disabled)")
	useTLS := flag.Bool("tls", false, "serve HTTPS with a self-signed certificate")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	flag.Parse()

	if *name == "" {
		*name = "http://localhost" + *listen
	}

	opts := datastore.Options{
		Name:              *name,
		Dir:               *dir,
		MaxSegmentSamples: *maxSamples,
		SegstoreDir:       *segstoreDir,
		MemtableBytes:     *memtableBytes,
		CompactInterval:   *compactInterval,
	}
	if *brokerURL != "" {
		bc := &httpapi.BrokerClient{BaseURL: *brokerURL}
		opts.Sync = bc
		opts.Directory = bc
	}
	svc, err := datastore.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "storeserver: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()

	logger := obs.NewLogger("storeserver", os.Stderr)
	logger.Info("starting", "version", obs.Version)
	logger.Info("listening", "name", *name, "listen", *listen,
		"dir", *dir, "broker", *brokerURL, "sync_interval", datastore.DefaultSyncInterval.String(),
		"compact_interval", compactInterval.String(),
		"tls", *useTLS, "pprof", *withPprof)
	ctrl := overload.NewController(overload.StoreDefaults())
	handler := mountPprof(httpapi.NewStoreHandlerOverload(svc, ctrl), *withPprof)
	server := httpapi.NewServer(*listen, handler)
	if *useTLS {
		tlsCfg, err := httpapi.SelfSignedTLS([]string{"localhost", "127.0.0.1"}, 0)
		if err != nil {
			log.Fatalf("storeserver: %v", err)
		}
		server.TLSConfig = tlsCfg
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		if *useTLS {
			errCh <- server.ListenAndServeTLS("", "")
			return
		}
		errCh <- server.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("storeserver: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: send the terminal bye to live-sharing subscribers
	// first so blocked long-polls return inside the grace window, then
	// drain the remaining requests.
	logger.Info("shutting down", "grace", shutdownGrace.String())
	svc.Stream().Shutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "err", err)
	}
}

// mountPprof optionally layers the net/http/pprof handlers over the API.
// Profiling stays opt-in: the endpoints expose heap contents and must not be
// reachable on a store that holds real sensor data unless deliberately
// enabled.
func mountPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	root := http.NewServeMux()
	root.Handle("/", h)
	root.HandleFunc("/debug/pprof/", pprof.Index)
	root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	root.HandleFunc("/debug/pprof/profile", pprof.Profile)
	root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return root
}
