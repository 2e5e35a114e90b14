package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorsafe/internal/datastore"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/wavesegment"
)

// syncBuffer collects log output from both servers' handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRequestIDGeneratedWhenAbsent(t *testing.T) {
	d := deploy(t)
	resp, err := http.Get(d.storeClient.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID generated")
	}
	if len(id) != 16 {
		t.Errorf("generated id %q: want 16 chars", id)
	}
}

func TestRequestIDEchoedWhenPresent(t *testing.T) {
	d := deploy(t)
	req, err := http.NewRequest(http.MethodGet, d.brokerClient.BaseURL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-id" {
		t.Errorf("echoed id = %q, want caller-chosen-id", got)
	}
}

// TestMetricsEndpointAfterTraffic drives the acceptance flow — register,
// rules, upload, consumer query — then scrapes /metrics and checks the
// exposition contains the HTTP counters, latency buckets, and the release
// decision counter.
func TestMetricsEndpointAfterTraffic(t *testing.T) {
	ctx := context.Background()
	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	seg := &wavesegment.Segment{
		Contributor: "alice", Start: t0, Interval: time.Second,
		Location: home, Channels: []string{wavesegment.ChannelECG},
		Values: [][]float64{{1}, {2}},
	}
	if _, err := d.storeClient.UploadCtx(ctx, alice.Key, []*wavesegment.Segment{seg}); err != nil {
		t.Fatal(err)
	}
	bob, err := d.storeClient.RegisterCtx(ctx, "bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := d.storeClient.QueryTextCtx(ctx, bob.Key, "channels(ECG)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("expected a release before scraping metrics")
	}

	resp, err := http.Get(d.storeClient.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)
	for _, want := range []string{
		`sensorsafe_http_requests_total{component="store",method="POST",route="/api/upload",status="200"}`,
		`sensorsafe_http_request_seconds_bucket{component="store",route="/api/query"`,
		`sensorsafe_datastore_releases_total{decision="allow"}`,
		"# TYPE sensorsafe_http_requests_total counter",
		"# TYPE sensorsafe_http_request_seconds histogram",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsMethodLabelIsBounded sends 50 requests with invented
// methods: they must all count under method="other" and add no series of
// their own.
func TestMetricsMethodLabelIsBounded(t *testing.T) {
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	h := NewStoreHandler(svc)
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(fmt.Sprintf("PROBE%d", i), "/api/upload", nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exposition := rec.Body.String()
	if strings.Contains(exposition, "PROBE") {
		t.Error("invented methods became metric series")
	}
	if want := `sensorsafe_http_requests_total{component="store",method="other",route="/api/upload",status="405"}`; !strings.Contains(exposition, want) {
		t.Errorf("exposition missing %s", want)
	}
}

// TestRequestIDCorrelatesBrokerAndStoreLogs sends one /api/connect call
// with an explicit X-Request-ID and checks the same ID shows up in both
// services' request logs: the broker's own log line and the store's line
// for the server-to-server ProvisionConsumer hop.
func TestRequestIDCorrelatesBrokerAndStoreLogs(t *testing.T) {
	ctx := context.Background()
	var buf syncBuffer
	old := logDest
	logDest = &buf
	defer func() { logDest = old }()

	d := deploy(t)
	alice, err := d.storeClient.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.storeClient.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := d.brokerClient.RegisterConsumerCtx(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}

	const rid = "corr-0123456789ab"
	body := fmt.Sprintf(`{"key":%q,"contributor":"alice"}`, bob.Key)
	req, err := http.NewRequest(http.MethodPost, d.brokerClient.BaseURL+"/api/connect", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/connect: HTTP %d", resp.StatusCode)
	}

	var sawBroker, sawStore bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "request_id="+rid) {
			continue
		}
		if strings.Contains(line, "component=broker") {
			sawBroker = true
		}
		if strings.Contains(line, "component=store") {
			sawStore = true
		}
	}
	if !sawBroker {
		t.Error("request ID missing from broker logs")
	}
	if !sawStore {
		t.Error("request ID missing from store logs (server-to-server propagation broken)")
	}
}

// postWithIdemKey sends one raw POST carrying an X-Idempotency-Key.
func postWithIdemKey(t *testing.T, h http.Handler, path, body, key string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set(idempotencyKeyHeader, key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIdempotencyKeyIsBoundToItsRoute reuses one key on a register and
// then on a query: the query must run, not replay the register's answer
// (and with it the new user's API key).
func TestIdempotencyKeyIsBoundToItsRoute(t *testing.T) {
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	h := NewStoreHandler(svc)
	reg := postWithIdemKey(t, h, "/api/register", `{"name":"alice","role":"contributor"}`, "K1")
	if reg.Code != http.StatusOK {
		t.Fatalf("register: HTTP %d %s", reg.Code, reg.Body)
	}
	q := postWithIdemKey(t, h, "/api/query", `{"key":"nope"}`, "K1")
	if q.Header().Get(idempotencyReplayHeader) != "" || bytes.Equal(q.Body.Bytes(), reg.Body.Bytes()) {
		t.Fatalf("query replayed the register response: %s", q.Body)
	}
	if q.Code != http.StatusUnauthorized {
		t.Errorf("query with a bad key: HTTP %d, want 401", q.Code)
	}
	// The same key on the same mutating route still replays.
	again := postWithIdemKey(t, h, "/api/register", `{"name":"alice","role":"contributor"}`, "K1")
	if again.Header().Get(idempotencyReplayHeader) != "true" || !bytes.Equal(again.Body.Bytes(), reg.Body.Bytes()) {
		t.Errorf("retried register not replayed: HTTP %d %s", again.Code, again.Body)
	}
}

// TestIdempotencyKeyIgnoredOnReads mounts the declared read and mutating
// routes on one api and sends each the same key three times: no read may
// be cached, and the mutation must run once and replay twice.
func TestIdempotencyKeyIgnoredOnReads(t *testing.T) {
	a := newAPI("store", overload.NewController(overload.StoreDefaults()))
	reads, writes := 0, 0
	storeQuery.mount(a, func(context.Context, *queryReq) (queryResp, error) {
		reads++
		return queryResp{}, nil
	})
	storeRegister.mount(a, func(context.Context, *registerReq) (registerResp, error) {
		writes++
		return registerResp{Name: "alice"}, nil
	})
	for i := 0; i < 3; i++ {
		if rec := postWithIdemKey(t, a.mux, storeQuery.path, `{}`, "K1"); rec.Header().Get(idempotencyReplayHeader) != "" {
			t.Fatalf("read %d replayed", i)
		}
	}
	if n := a.idem.Len(); n != 0 {
		t.Errorf("keyed reads left %d cache entries, want 0", n)
	}
	if reads != 3 {
		t.Errorf("read handler ran %d times, want 3", reads)
	}
	for i := 0; i < 3; i++ {
		rec := postWithIdemKey(t, a.mux, storeRegister.path, `{}`, "K1")
		if replayed := rec.Header().Get(idempotencyReplayHeader) == "true"; replayed != (i > 0) {
			t.Errorf("mutation %d: replayed=%v, want %v", i, replayed, i > 0)
		}
	}
	if writes != 1 {
		t.Errorf("mutating handler ran %d times, want 1", writes)
	}
}
