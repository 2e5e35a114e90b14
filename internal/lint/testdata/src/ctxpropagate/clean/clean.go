// Package clean shows the context shapes the ctxpropagate analyzer must
// accept: call sites that pass the caller's ctx on, and an explicit ignore
// directive at a call-tree root.
package clean

import "context"

type client struct{}

func (c *client) FetchCtx(ctx context.Context, n int) error { _ = ctx; _ = n; return nil }

func handler(ctx context.Context, c *client) error {
	return c.FetchCtx(ctx, 1)
}

func harness(c *client) error {
	//sslint:ignore ctxpropagate fixture harness is the call-tree root
	ctx := context.Background()
	return c.FetchCtx(ctx, 1)
}
