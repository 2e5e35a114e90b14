package main

import (
	"context"
	"encoding/json"
	"time"

	"sensorsafe/internal/httpapi"
	"sensorsafe/internal/segstore"
)

// observer gathers, during a traced run, what the servers say about
// themselves: a /metrics scrape before and after the window, and
// /healthz and /debug/segstore polled at 4 Hz in between.
type observer struct {
	st            *stack
	before, after promSet // store /metrics
	brokerBefore  promSet
	brokerAfter   promSet
	brokerProc    [2]procSample

	cancel context.CancelFunc
	done   chan struct{}

	// Written by the poller until done is closed, read after.
	polls       int
	unhealthy   int
	pressureMax float64
	l0Max       int
	walMax      int64

	segstore segstore.Stats // last snapshot
}

const observeEvery = 250 * time.Millisecond

func startObserver(ctx context.Context, st *stack) (*observer, error) {
	ob := &observer{st: st, done: make(chan struct{})}
	data, err := httpGet(ctx, st.store.addr+"/metrics")
	if err != nil {
		return nil, err
	}
	ob.before = parseProm(data)
	if st.broker != nil {
		if data, err = httpGet(ctx, st.broker.addr+"/metrics"); err != nil {
			return nil, err
		}
		ob.brokerBefore = parseProm(data)
		if ob.brokerProc[0], err = readProc(st.broker.pid()); err != nil {
			return nil, err
		}
	}
	pollCtx, cancel := context.WithCancel(ctx)
	ob.cancel = cancel
	go ob.poll(pollCtx)
	return ob, nil
}

func (ob *observer) poll(ctx context.Context) {
	defer close(ob.done)
	tick := time.NewTicker(observeEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var h httpapi.Health
		if data, err := httpGet(ctx, ob.st.store.addr+"/healthz"); err == nil && json.Unmarshal(data, &h) == nil {
			ob.polls++
			if h.Degradation != "healthy" {
				ob.unhealthy++
			}
			ob.pressureMax = max(ob.pressureMax, h.Pressure)
		}
		ob.readSegstore(ctx)
	}
}

func (ob *observer) readSegstore(ctx context.Context) {
	data, err := httpGet(ctx, ob.st.store.addr+"/debug/segstore")
	if err != nil {
		return
	}
	var s segstore.Stats
	if json.Unmarshal(data, &s) != nil {
		return
	}
	ob.segstore = s
	ob.walMax = max(ob.walMax, s.WALBytes)
	for _, lv := range s.Levels {
		if lv.Level == 0 {
			ob.l0Max = max(ob.l0Max, lv.Files)
		}
	}
}

// stop ends the polling and takes the closing scrapes.
func (ob *observer) stop(ctx context.Context) error {
	ob.cancel()
	<-ob.done
	ob.readSegstore(ctx)
	data, err := httpGet(ctx, ob.st.store.addr+"/metrics")
	if err != nil {
		return err
	}
	ob.after = parseProm(data)
	if ob.st.broker != nil {
		if data, err = httpGet(ctx, ob.st.broker.addr+"/metrics"); err != nil {
			return err
		}
		ob.brokerAfter = parseProm(data)
		if ob.brokerProc[1], err = readProc(ob.st.broker.pid()); err != nil {
			return err
		}
	}
	return nil
}
