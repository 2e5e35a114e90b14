// Command storepool runs a pool of individual remote data stores in one
// process — the paper's §5.1 deployment where "the institution that
// collects data can provide a virtual machine pool of individual data
// stores and make each virtual machine accessible by its owner only".
// Each pool slot is a fully isolated store service (own accounts, rules,
// storage directory, audit trail) on its own port, all registered with the
// same broker, each running anti-entropy against it every 30 s.
//
// Usage:
//
//	storepool -count 20 -base-port 9000 -dir ./pool -broker http://localhost:8080
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"sensorsafe/internal/datastore"
	"sensorsafe/internal/httpapi"
)

func main() {
	count := flag.Int("count", 10, "number of individual stores")
	basePort := flag.Int("base-port", 9000, "first port; store i listens on base-port+i")
	host := flag.String("host", "localhost", "hostname used in the stores' public addresses")
	dir := flag.String("dir", "", "base directory; each store persists under <dir>/store-<i> (empty = in-memory)")
	brokerURL := flag.String("broker", "", "broker base URL")
	flag.Parse()

	if *count <= 0 {
		fmt.Fprintln(os.Stderr, "storepool: -count must be positive")
		os.Exit(2)
	}

	var wg sync.WaitGroup
	for i := 0; i < *count; i++ {
		port := *basePort + i
		name := fmt.Sprintf("http://%s:%d", *host, port)
		opts := datastore.Options{Name: name}
		if *dir != "" {
			opts.Dir = filepath.Join(*dir, fmt.Sprintf("store-%d", i))
		}
		if *brokerURL != "" {
			bc := &httpapi.BrokerClient{BaseURL: *brokerURL}
			opts.Sync = bc
			opts.Directory = bc
		}
		svc, err := datastore.New(opts)
		if err != nil {
			log.Fatalf("storepool: store %d: %v", i, err)
		}
		defer svc.Close()

		addr := fmt.Sprintf(":%d", port)
		// Each pool slot gets its own admission controller: one tenant's
		// storm browns out only that tenant's store.
		server := httpapi.NewServer(addr, httpapi.NewStoreHandler(svc))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log.Printf("pool store %d (%s) listening on %s", i, name, addr)
			if err := server.ListenAndServe(); err != nil {
				log.Printf("storepool: store %d: %v", i, err)
			}
		}(i)
	}
	log.Printf("pool of %d individual stores up (ports %d-%d)", *count, *basePort, *basePort+*count-1)
	wg.Wait()
}
