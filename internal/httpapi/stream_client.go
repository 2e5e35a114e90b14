package httpapi

import (
	"context"
	"net/http"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/stream"
)

// Live-sharing client SDK. SubscribeCtx/NextCtx/AckStreamCtx/UnsubscribeCtx
// mirror the hub API over the long-poll endpoint.

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
