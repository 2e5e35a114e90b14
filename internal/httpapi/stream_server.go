package httpapi

import (
	"context"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/stream"
)

// Live-sharing transport: the long-poll POST /api/stream/next blocks up
// to waitMs for events and returns a Batch whose cursor acknowledges (and
// frees) everything in earlier batches the caller passed back. The key
// travels in the body, never in the URL (§5.4).

// maxStreamWait bounds a single long-poll round trip.
const maxStreamWait = 60 * time.Second

type streamSubscribeReq struct {
	Key         auth.APIKey `json:"key"`
	Contributor string      `json:"contributor"`
	Channels    []string    `json:"channels,omitempty"`
}

type streamNextReq struct {
	Key    auth.APIKey `json:"key"`
	ID     string      `json:"id"`
	Cursor string      `json:"cursor,omitempty"`
	WaitMs int         `json:"waitMs,omitempty"`
}

type streamAckReq struct {
	Key    auth.APIKey `json:"key"`
	ID     string      `json:"id"`
	Cursor string      `json:"cursor"`
}

type streamIDReq struct {
	Key auth.APIKey `json:"key"`
	ID  string      `json:"id"`
}

func clampWait(ms int) time.Duration {
	if ms <= 0 {
		return 0
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxStreamWait {
		return maxStreamWait
	}
	return d
}

// registerStreamAPI mounts the live-sharing routes on the store.
func registerStreamAPI(a *api, svc *datastore.Service) {
	streamSubscribe.mount(a, func(ctx context.Context, r *streamSubscribeReq) (stream.SubInfo, error) {
		return svc.Subscribe(r.Key, r.Contributor, r.Channels)
	})

	streamNext.mount(a, func(ctx context.Context, r *streamNextReq) (stream.Batch, error) {
		_, span, stop := obs.Span(ctx, "stream.deliver")
		batch, err := svc.StreamNext(r.Key, r.ID, r.Cursor, clampWait(r.WaitMs))
		span.SetAttr(trace.Int("events", len(batch.Events)))
		stop(err)
		return batch, err
	})

	streamAck.mount(a, func(ctx context.Context, r *streamAckReq) (okResp, error) {
		if err := svc.StreamAck(r.Key, r.ID, r.Cursor); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})

	streamUnsubscribe.mount(a, func(ctx context.Context, r *streamIDReq) (okResp, error) {
		if err := svc.Unsubscribe(r.Key, r.ID); err != nil {
			return okResp{}, err
		}
		return okResp{OK: true}, nil
	})
}
