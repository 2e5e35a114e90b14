package httpapi

import (
	"net/http"
	"time"
)

// NewServer returns the http.Server every SensorSafe binary listens with,
// so the store, the broker and the store pool share one timeout policy
// (slowloris hardening plus a write deadline per response). Callers set
// TLSConfig themselves when serving HTTPS.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout must stay above maxStreamWait, or the server would
		// cut its own long-polls before they answer.
		WriteTimeout: 2 * time.Minute,
	}
}
