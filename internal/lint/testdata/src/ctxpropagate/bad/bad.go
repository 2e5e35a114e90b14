// Package bad exercises the ctxpropagate analyzer: minting contexts in
// library code is flagged, including in a wrapper that only delegates to
// a context-taking sibling.
package bad

import "context"

type client struct{}

func (c *client) FetchCtx(ctx context.Context, n int) error { _ = ctx; _ = n; return nil }

// Fetch is a deadline-free wrapper: it drops its caller's context.
func (c *client) Fetch(n int) error {
	return c.FetchCtx(context.Background(), n) // want "context.Background() in library code"
}

func mint() context.Context {
	return context.Background() // want "context.Background() in library code"
}

func todo() context.Context {
	return context.TODO() // want "context.TODO() in library code"
}
