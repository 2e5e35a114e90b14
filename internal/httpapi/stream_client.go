package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/stream"
)

// Live-sharing client SDK. SubscribeCtx/NextCtx/AckStreamCtx/UnsubscribeCtx
// mirror the hub API over the long-poll endpoint; Live consumes the SSE endpoint and
// invokes a callback per event until the stream ends.

// streamClient returns an HTTP client whose timeout comfortably exceeds a
// long-poll wait (the default 30 s client would sever a 60 s poll).
func (c *StoreClient) streamClient(wait time.Duration) *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: wait + 30*time.Second}
}

// SubscribeCtx opens (or resumes) a live subscription to a contributor's
// channels. The returned SubInfo carries the subscription ID and the
// durable cursor to resume from.
func (c *StoreClient) SubscribeCtx(ctx context.Context, key auth.APIKey, contributor string, channels []string) (stream.SubInfo, error) {
	var resp stream.SubInfo
	err := c.call(ctx, "/api/stream/subscribe",
		true, &streamSubscribeReq{Key: key, Contributor: contributor, Channels: channels}, &resp)
	return resp, err
}

// NextCtx long-polls for the next batch of stream events, blocking up to
// wait on the server side. Passing the previous batch's cursor
// acknowledges it. Retries are safe without an idempotency key: the cursor makes redelivery
// all-or-nothing, so a retried poll re-reads from the same position.
// Note a Policy.PerAttemptTimeout shorter than wait would sever every
// poll; the default policy sets none.
func (c *StoreClient) NextCtx(ctx context.Context, key auth.APIKey, id, cursor string, wait time.Duration) (stream.Batch, error) {
	var resp stream.Batch
	err := doJSON(ctx, c.streamClient(wait), c.Retry, c.BaseURL, "/api/stream/next",
		false, &streamNextReq{Key: key, ID: id, Cursor: cursor, WaitMs: int(wait / time.Millisecond)}, &resp)
	return resp, err
}

// AckStreamCtx advances the durable cursor without polling.
func (c *StoreClient) AckStreamCtx(ctx context.Context, key auth.APIKey, id, cursor string) error {
	return c.call(ctx, "/api/stream/ack",
		false, &streamAckReq{Key: key, ID: id, Cursor: cursor}, &okResp{})
}

// UnsubscribeCtx revokes a live subscription.
func (c *StoreClient) UnsubscribeCtx(ctx context.Context, key auth.APIKey, id string) error {
	return c.call(ctx, "/api/stream/unsubscribe",
		true, &streamIDReq{Key: key, ID: id}, &okResp{})
}

// Live attaches to the SSE endpoint and calls fn for every event until the
// server closes the stream (bye), the context is canceled, or the
// connection drops. It returns the cursor of the last event received —
// resubscribe (or call Live again) with it to resume without replay.
func (c *StoreClient) Live(ctx context.Context, key auth.APIKey, id, cursor string, fn func(stream.Event) error) (string, error) {
	body, err := json.Marshal(&streamNextReq{Key: key, ID: id, Cursor: cursor})
	if err != nil {
		return cursor, fmt.Errorf("httpapi: encode request: %w", err)
	}
	url := strings.TrimRight(c.BaseURL, "/") + "/api/stream/live"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return cursor, fmt.Errorf("httpapi: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	setCallHeaders(req)

	// No client timeout: the stream is open-ended; ctx bounds its life.
	hc := &http.Client{Transport: c.hc().Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return cursor, fmt.Errorf("httpapi: POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&eb) == nil && eb.Error != "" {
			return cursor, fmt.Errorf("httpapi: /api/stream/live: %s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return cursor, fmt.Errorf("httpapi: /api/stream/live: HTTP %d", resp.StatusCode)
	}

	last := cursor
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxBodyBytes)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // keep-alive ping
			}
			var ev stream.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return last, fmt.Errorf("httpapi: decode SSE event: %w", err)
			}
			data = nil
			if ev.Cursor != "" {
				last = ev.Cursor
			}
			if err := fn(ev); err != nil {
				return last, err
			}
			if ev.Kind == stream.KindBye {
				return last, nil
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		default:
			// id:/event:/comment lines — the JSON payload carries it all.
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return last, fmt.Errorf("httpapi: SSE stream: %w", err)
	}
	return last, nil
}
