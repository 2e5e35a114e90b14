package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/datastore"
	"sensorsafe/internal/overload"
)

// parentRoutes is how the servers classified their API routes before the
// route table existed: for each of the 34 paths, its server, the class
// and gating the old storeRouteClass/brokerRouteClass switches gave it,
// and whether the old mutatingRoutes map listed it. It was computed once
// from those functions and is never to be regenerated from the table.
var parentRoutes = []struct {
	server, path   string
	class          overload.Class
	gated, mutates bool
}{
	{"store", "/api/register", overload.ClassIngest, true, true},
	{"store", "/api/upload", overload.ClassIngest, true, true},
	{"store", "/api/query", overload.ClassQuery, true, false},
	{"store", "/api/queryown", overload.ClassQuery, true, false},
	{"store", "/api/rules/set", overload.ClassIngest, true, true},
	{"store", "/api/rules/get", overload.ClassIngest, true, false},
	{"store", "/api/places/define", overload.ClassIngest, true, true},
	{"store", "/api/groups/assign", overload.ClassIngest, true, true},
	{"store", "/api/audit/events", overload.ClassQuery, true, false},
	{"store", "/api/audit/summary", overload.ClassQuery, true, false},
	{"store", "/api/rotate", overload.ClassIngest, true, true},
	{"store", "/api/recommend", overload.ClassQuery, true, false},
	{"store", "/api/password", overload.ClassIngest, true, true},
	{"store", "/api/login", overload.ClassIngest, true, true},
	{"store", "/api/stream/subscribe", overload.ClassStream, true, true},
	{"store", "/api/stream/next", overload.ClassStream, true, false},
	{"store", "/api/stream/ack", overload.ClassStream, true, false},
	{"store", "/api/stream/unsubscribe", overload.ClassStream, true, true},
	{"broker", "/api/consumers/register", overload.ClassIngest, true, true},
	{"broker", "/api/contributors/register", overload.ClassIngest, true, true},
	{"broker", "/api/sync", overload.ClassIngest, true, true},
	{"broker", "/api/sync/digest", overload.ClassIngest, true, false},
	{"broker", "/api/replicas", overload.ClassDirectory, true, false},
	{"broker", "/api/directory", overload.ClassDirectory, true, false},
	{"broker", "/api/connect", overload.ClassDirectory, true, true},
	{"broker", "/api/credentials", overload.ClassDirectory, true, false},
	{"broker", "/api/search", overload.ClassDirectory, true, false},
	{"broker", "/api/lists/save", overload.ClassDirectory, true, true},
	{"broker", "/api/lists/get", overload.ClassDirectory, true, false},
	{"broker", "/api/studies/create", overload.ClassDirectory, true, true},
	{"broker", "/api/studies/join", overload.ClassDirectory, true, true},
	{"broker", "/api/studies/members", overload.ClassDirectory, true, false},
	{"broker", "/api/studies/enroll", overload.ClassDirectory, true, true},
	{"broker", "/api/studies/contributors", overload.ClassDirectory, true, false},
}

// testAPIs builds both servers' route sets around the given controllers.
func testAPIs(t *testing.T, storeCtrl, brokerCtrl *overload.Controller) map[string]*api {
	t.Helper()
	svc, err := datastore.New(datastore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return map[string]*api{
		"store":  storeAPI(svc, storeCtrl),
		"broker": brokerAPI(broker.New(), brokerCtrl),
	}
}

// TestRouteTableMatchesParent checks every mounted route against the
// classification the servers had before the table: same server, class,
// gating and mutation flag, and no route added or lost.
func TestRouteTableMatchesParent(t *testing.T) {
	apis := testAPIs(t, overload.NewController(overload.StoreDefaults()), overload.NewController(overload.BrokerDefaults()))
	mounted := map[string]map[string]routeSpec{}
	total := 0
	for server, a := range apis {
		mounted[server] = map[string]routeSpec{}
		for _, rt := range a.routes {
			if _, dup := mounted[server][rt.path]; dup {
				t.Errorf("%s mounts %s twice", server, rt.path)
			}
			mounted[server][rt.path] = rt
			total++
		}
	}
	for _, want := range parentRoutes {
		got, ok := mounted[want.server][want.path]
		if ok != want.gated {
			t.Errorf("%s %s: mounted behind admission = %v, want %v", want.server, want.path, ok, want.gated)
			continue
		}
		if got.class != want.class {
			t.Errorf("%s %s: class %s, want %s", want.server, want.path, got.class, want.class)
		}
		if got.mutates != want.mutates {
			t.Errorf("%s %s: mutates = %v, want %v", want.server, want.path, got.mutates, want.mutates)
		}
	}
	if total != len(parentRoutes) {
		t.Errorf("servers mount %d API routes, want %d", total, len(parentRoutes))
	}
}

// shedAll returns a controller whose every class gate is held full, so
// each admitted-class request waits 1 ms and is shed with 429.
func shedAll(t *testing.T, component string) *overload.Controller {
	t.Helper()
	cfg := overload.Config{Component: component}
	for c := range cfg.Capacity {
		cfg.Capacity[c] = 1
		cfg.QueueWait[c] = time.Millisecond
	}
	ctrl := overload.NewController(cfg)
	for c := 0; c < overload.NumClasses; c++ {
		release, rej := ctrl.Admit(context.Background(), overload.Class(c), "filler")
		if rej != nil {
			t.Fatalf("filling %s gate: %v", overload.Class(c), rej)
		}
		t.Cleanup(release)
	}
	return ctrl
}

// TestEveryDeclaredRouteIsGated serves both servers behind controllers
// that shed everything: every mounted route answers 429 on its own server
// and 404 on the other, and the status endpoints stay reachable.
func TestEveryDeclaredRouteIsGated(t *testing.T) {
	apis := testAPIs(t, shedAll(t, "store"), shedAll(t, "broker"))
	serve := func(server, method, path string) int {
		rec := httptest.NewRecorder()
		apis[server].handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec.Code
	}
	other := map[string]string{"store": "broker", "broker": "store"}
	for server, a := range apis {
		if len(a.routes) == 0 {
			t.Fatalf("%s mounts no routes", server)
		}
		for _, rt := range a.routes {
			if code := serve(server, http.MethodPost, rt.path); code != http.StatusTooManyRequests {
				t.Errorf("%s POST %s: HTTP %d, want 429", server, rt.path, code)
			}
			if code := serve(other[server], http.MethodPost, rt.path); code != http.StatusNotFound {
				t.Errorf("%s POST %s (a %s route): HTTP %d, want 404", other[server], rt.path, server, code)
			}
		}
	}
	ungated := map[string][]string{
		"store":  {"/healthz", "/metrics", "/debug/traces", "/debug/segstore", "/debug/ruleindex", "/"},
		"broker": {"/healthz", "/metrics", "/debug/traces", "/"},
	}
	for server, paths := range ungated {
		for _, path := range paths {
			if code := serve(server, http.MethodGet, path); code == http.StatusTooManyRequests {
				t.Errorf("%s GET %s was shed; status endpoints are not admitted", server, path)
			}
		}
	}
}

// TestAdminPageListsMountedRoutes checks both status pages list every
// mounted route with its class.
func TestAdminPageListsMountedRoutes(t *testing.T) {
	apis := testAPIs(t, overload.NewController(overload.StoreDefaults()), overload.NewController(overload.BrokerDefaults()))
	for server, a := range apis {
		rec := httptest.NewRecorder()
		a.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s admin page: HTTP %d", server, rec.Code)
		}
		for _, rt := range a.routes {
			if want := "POST " + rt.path + " &middot; " + rt.class.String(); !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s admin page lacks %q", server, want)
			}
		}
	}
}
