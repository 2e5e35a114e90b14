package httpapi

import "testing"

// TestServerWriteTimeoutExceedsStreamWait: the shared server's write
// deadline must outlast the longest long-poll, or the server would cut
// its own /api/stream/next answers; the read and idle bounds must all be
// set.
func TestServerWriteTimeoutExceedsStreamWait(t *testing.T) {
	srv := NewServer("", nil)
	if srv.WriteTimeout <= maxStreamWait {
		t.Errorf("WriteTimeout = %v, want > maxStreamWait (%v)", srv.WriteTimeout, maxStreamWait)
	}
	if srv.ReadHeaderTimeout == 0 || srv.ReadTimeout == 0 || srv.IdleTimeout == 0 {
		t.Errorf("ReadHeaderTimeout = %v, ReadTimeout = %v, IdleTimeout = %v; want all non-zero",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}
