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

// SubscribeCtx opens (or resumes) a live subscription to a contributor's
// channels. The returned SubInfo carries the subscription ID and the
// durable cursor to resume from.
func (c *StoreClient) SubscribeCtx(ctx context.Context, key auth.APIKey, contributor string, channels []string) (stream.SubInfo, error) {
	return streamSubscribe.call(ctx, peer(*c),
		&streamSubscribeReq{Key: key, Contributor: contributor, Channels: channels})
}

// NextCtx long-polls for the next batch of stream events, blocking up to
// wait on the server side. Passing the previous batch's cursor
// acknowledges it. Retries are safe without an idempotency key: the
// cursor makes redelivery all-or-nothing, so a retried poll re-reads from
// the same position.
func (c *StoreClient) NextCtx(ctx context.Context, key auth.APIKey, id, cursor string, wait time.Duration) (stream.Batch, error) {
	p := peer(*c)
	if p.HTTP == nil {
		// The default 30 s client would sever a 60 s poll.
		p.HTTP = &http.Client{Timeout: wait + 30*time.Second}
	}
	return streamNext.call(ctx, p,
		&streamNextReq{Key: key, ID: id, Cursor: cursor, WaitMs: int(wait / time.Millisecond)})
}

// AckStreamCtx advances the durable cursor without polling.
func (c *StoreClient) AckStreamCtx(ctx context.Context, key auth.APIKey, id, cursor string) error {
	_, err := streamAck.call(ctx, peer(*c), &streamAckReq{Key: key, ID: id, Cursor: cursor})
	return err
}

// UnsubscribeCtx revokes a live subscription.
func (c *StoreClient) UnsubscribeCtx(ctx context.Context, key auth.APIKey, id string) error {
	_, err := streamUnsubscribe.call(ctx, peer(*c), &streamIDReq{Key: key, ID: id})
	return err
}
