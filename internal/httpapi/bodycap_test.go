package httpapi

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/query"
)

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestServerRefusesOverCapBody sends a request body one byte over the cap:
// the store must answer 413 and name the cap, not report malformed JSON.
func TestServerRefusesOverCapBody(t *testing.T) {
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	body := io.MultiReader(strings.NewReader(`{"key":"k"}`), io.LimitReader(spaces{}, maxBodyBytes))
	req := httptest.NewRequest(http.MethodPost, "/api/upload", body)
	rec := httptest.NewRecorder()
	NewStoreHandler(svc).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: HTTP %d %s, want 413", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "64 MiB") {
		t.Errorf("413 body does not name the cap: %s", rec.Body)
	}
}

// TestClientRefusesOverCapResponse serves a response body one byte over
// the cap: the client must fail once, terminally, naming the cap.
func TestClientRefusesOverCapResponse(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"releases":[]}`)
		io.Copy(w, io.LimitReader(spaces{}, maxBodyBytes))
	}))
	t.Cleanup(srv.Close)
	c := &StoreClient{BaseURL: srv.URL}
	_, err := c.QueryCtx(context.Background(), auth.APIKey("k"), &query.Query{})
	if err == nil || !strings.Contains(err.Error(), "64 MiB") {
		t.Fatalf("over-cap response: error %v, want one naming the 64 MiB cap", err)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("server hit %d times, want 1 (the error is terminal)", n)
	}
}
