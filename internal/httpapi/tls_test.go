package httpapi

import (
	"context"
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorsafe/internal/datastore"
	"sensorsafe/internal/query"
)

func TestSelfSignedTLSEndToEnd(t *testing.T) {
	ctx := context.Background()
	cfg, err := SelfSignedTLS([]string{"127.0.0.1", "localhost"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Certificates) != 1 || cfg.MinVersion != tls.VersionTLS12 {
		t.Fatalf("config = %+v", cfg)
	}

	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	srv := httptest.NewUnstartedServer(NewStoreHandler(svc))
	srv.TLS = cfg
	srv.StartTLS()
	defer srv.Close()

	// A client trusting the cert (via insecure skip, as with any
	// self-signed deployment cert) completes the whole key-in-body flow
	// over TLS.
	client := &StoreClient{
		BaseURL: srv.URL,
		HTTP: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{TLSClientConfig: InsecureClientTLS()},
		},
	}
	alice, err := client.RegisterCtx(ctx, "alice", "contributor")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetRulesCtx(ctx, alice.Key, []byte(`[{"Action":"Allow"}]`)); err != nil {
		t.Fatal(err)
	}
	bob, err := client.RegisterCtx(ctx, "bob", "consumer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryCtx(ctx, bob.Key, &query.Query{}); err != nil {
		t.Fatal(err)
	}

	// A default client (which verifies certificates) must reject the
	// self-signed cert — proving TLS is actually on.
	plain := &StoreClient{BaseURL: srv.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	if _, err := plain.RegisterCtx(ctx, "eve", "consumer"); err == nil {
		t.Error("verifying client should reject the self-signed certificate")
	}
}

func TestSelfSignedTLSValidation(t *testing.T) {
	if _, err := SelfSignedTLS(nil, time.Hour); err == nil {
		t.Error("no hosts should be rejected")
	}
	cfg, err := SelfSignedTLS([]string{"example.org"}, 0)
	if err != nil {
		t.Fatalf("zero duration should default: %v", err)
	}
	if len(cfg.Certificates) != 1 {
		t.Error("expected one certificate")
	}
}
