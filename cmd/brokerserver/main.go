// Command brokerserver runs the SensorSafe broker: the directory of data
// contributors and their remote data stores, the replicated privacy-rule
// search index, and the consumer credential vault. Sensor data never flows
// through it.
//
// Usage:
//
//	brokerserver -listen :8080 [-dir DIR]
//
// With -dir, every mutation appends one fsynced frame to DIR/broker.log,
// and a graceful stop (SIGINT/SIGTERM) folds that log into
// DIR/broker_state.json; after a crash the next start replays and folds it.
//
// The broker exposes Prometheus metrics at /metrics and a JSON health report
// at /healthz; pass -pprof to additionally mount net/http/pprof profiling
// handlers under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/overload"
)

// shutdownGrace bounds how long in-flight requests may run after SIGINT/
// SIGTERM before the listener is torn down.
const shutdownGrace = 5 * time.Second

func main() {
	listen := flag.String("listen", ":8080", "address to listen on")
	dir := flag.String("dir", "", "state directory (empty = in-memory)")
	useTLS := flag.Bool("tls", false, "serve HTTPS with a self-signed certificate")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	flag.Parse()

	svc, err := broker.NewPersistent(*dir)
	if err != nil {
		log.Fatalf("brokerserver: %v", err)
	}
	logger := obs.NewLogger("brokerserver", os.Stderr)
	logger.Info("starting", "version", obs.Version)
	logger.Info("listening", "listen", *listen, "dir", *dir, "tls", *useTLS, "pprof", *withPprof)
	ctrl := overload.NewController(overload.BrokerDefaults())
	handler := mountPprof(httpapi.NewBrokerHandlerOverload(svc, ctrl), *withPprof)
	server := httpapi.NewServer(*listen, handler)
	if *useTLS {
		tlsCfg, err := httpapi.SelfSignedTLS([]string{"localhost", "127.0.0.1"}, 0)
		if err != nil {
			log.Fatalf("brokerserver: %v", err)
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
		log.Fatalf("brokerserver: %v", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", shutdownGrace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown", "err", err)
	}
	// Fold the broker's log into its state file, leaving the log empty.
	if err := svc.Close(); err != nil {
		logger.Error("close", "err", err)
	}
}

// mountPprof optionally layers the net/http/pprof handlers over the API.
// Profiling stays opt-in so a production broker does not expose heap and
// goroutine dumps by default.
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
