package httpapi

import (
	"context"
	"fmt"
	"html"
	"net/http"

	"sensorsafe/internal/broker"
	"sensorsafe/internal/overload"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/stream"
)

// routeSpec is what a server knows of a route: the path it is mounted
// at, the admission class that gates it, and whether a call changes
// state. A mutating route honours X-Idempotency-Key (the typed clients
// send one per logical call) and replays a retry's recorded answer; a
// read is never cached, so it can neither replay another route's answer
// nor pin a large body.
type routeSpec struct {
	path    string
	class   overload.Class
	mutates bool
}

// route is one POST API route, declared once below for the server that
// mounts it and the clients that call it. Req and Resp are the request
// body and the 200 answer, so a handler and a call site that disagree
// with the declaration do not compile.
type route[Req, Resp any] routeSpec

// Values of routeSpec.mutates, for reading the tables below.
const (
	readOnly = false
	mutates  = true
)

// Store routes. Ingest is the paper's never-shed tier: uploads, rule and
// account changes, and the phone's rule download (/api/rules/get). Stream
// delivery is shed first, queries next.
var (
	storeRegister     = route[registerReq, registerResp]{"/api/register", overload.ClassIngest, mutates}
	storeUpload       = route[uploadReq, uploadResp]{"/api/upload", overload.ClassIngest, mutates}
	storeQuery        = route[queryReq, queryResp]{"/api/query", overload.ClassQuery, readOnly}
	storeQueryOwn     = route[queryReq, queryOwnResp]{"/api/queryown", overload.ClassQuery, readOnly}
	storeRulesSet     = route[rulesSetReq, okResp]{"/api/rules/set", overload.ClassIngest, mutates}
	storeRulesGet     = route[rulesGetReq, rulesGetResp]{"/api/rules/get", overload.ClassIngest, readOnly}
	storePlacesDefine = route[placeDefineReq, okResp]{"/api/places/define", overload.ClassIngest, mutates}
	storeGroupsAssign = route[groupsAssignReq, okResp]{"/api/groups/assign", overload.ClassIngest, mutates}
	storeAuditEvents  = route[auditEventsReq, auditEventsResp]{"/api/audit/events", overload.ClassQuery, readOnly}
	storeAuditSummary = route[rulesGetReq, auditSummaryResp]{"/api/audit/summary", overload.ClassQuery, readOnly}
	storeRotate       = route[rulesGetReq, registerResp]{"/api/rotate", overload.ClassIngest, mutates}
	storeRecommend    = route[recommendReq, recommendResp]{"/api/recommend", overload.ClassQuery, readOnly}

	// The cursor makes a retried poll or ack re-read from the same
	// position, so neither needs an idempotency key.
	streamSubscribe   = route[streamSubscribeReq, stream.SubInfo]{"/api/stream/subscribe", overload.ClassStream, mutates}
	streamNext        = route[streamNextReq, stream.Batch]{"/api/stream/next", overload.ClassStream, readOnly}
	streamAck         = route[streamAckReq, okResp]{"/api/stream/ack", overload.ClassStream, readOnly}
	streamUnsubscribe = route[streamIDReq, okResp]{"/api/stream/unsubscribe", overload.ClassStream, mutates}
)

// Broker routes. Store-originated sync and registrations are ingest;
// every other call is directory traffic, shed only when its gate
// overflows, never by brownout.
var (
	brokerConsumersRegister    = route[registerReq, registerResp]{"/api/consumers/register", overload.ClassIngest, mutates}
	brokerContributorsRegister = route[brokerRegisterContribReq, okResp]{"/api/contributors/register", overload.ClassIngest, mutates}
	brokerSync                 = route[brokerSyncReq, okResp]{"/api/sync", overload.ClassIngest, mutates}
	brokerSyncDigest           = route[syncDigestReq, syncDigestResp]{"/api/sync/digest", overload.ClassIngest, readOnly}
	brokerReplicas             = route[struct{}, replicasResp]{"/api/replicas", overload.ClassDirectory, readOnly}
	brokerDirectory            = route[keyReq, directoryResp]{"/api/directory", overload.ClassDirectory, readOnly}
	brokerConnect              = route[connectReq, broker.Credential]{"/api/connect", overload.ClassDirectory, mutates}
	brokerCredentials          = route[keyReq, credentialsResp]{"/api/credentials", overload.ClassDirectory, readOnly}
	brokerSearch               = route[searchWire, searchResp]{"/api/search", overload.ClassDirectory, readOnly}
	brokerListsSave            = route[listSaveReq, okResp]{"/api/lists/save", overload.ClassDirectory, mutates}
	brokerListsGet             = route[listGetReq, listGetResp]{"/api/lists/get", overload.ClassDirectory, readOnly}
	brokerStudiesCreate        = route[studyReq, okResp]{"/api/studies/create", overload.ClassDirectory, mutates}
	brokerStudiesJoin          = route[studyReq, okResp]{"/api/studies/join", overload.ClassDirectory, mutates}
	brokerStudiesMembers       = route[studyReq, studyMembersResp]{"/api/studies/members", overload.ClassDirectory, readOnly}
	brokerStudiesEnroll        = route[studyReq, okResp]{"/api/studies/enroll", overload.ClassDirectory, mutates}
	brokerStudiesContributors  = route[studyReq, studyContributorsResp]{"/api/studies/contributors", overload.ClassDirectory, readOnly}
)

// api is one server's mux while its routes are mounted. Only mounted
// routes pass admission: unmatched paths 404 cheaply, and /healthz,
// /metrics, /debug/* and / are mounted on mux directly, ungated.
type api struct {
	component string
	mux       *http.ServeMux
	ctrl      *overload.Controller
	idem      *resilience.IdemCache
	routes    []routeSpec
}

func newAPI(component string, ctrl *overload.Controller) *api {
	return &api{component: component, mux: http.NewServeMux(), ctrl: ctrl, idem: resilience.NewIdemCache(0)}
}

// mount serves rt on a: post decodes Req and writes handle's Resp, a
// mutating route replays keyed retries, and admission for rt.class gates
// both, so a shed request never touches the idempotency cache.
func (rt route[Req, Resp]) mount(a *api, handle func(context.Context, *Req) (Resp, error)) {
	var h http.Handler = post(handle)
	if rt.mutates {
		h = idempotent(a.component, rt.path, a.idem, h)
	}
	a.mux.Handle(rt.path, admit(a.ctrl, rt.class, h))
	a.routes = append(a.routes, routeSpec(rt))
}

// handler wraps the finished mux in the observability middleware.
func (a *api) handler() http.Handler {
	return withObs(a.component, a.mux)
}

// mountAdmin serves the minimal web UI at "/" (standing in for the
// paper's Fig. 3 UI, which produces exactly the rule JSON the API
// accepts): a title, a status line, and the mounted API routes.
func (a *api) mountAdmin(title string, status func() string) {
	title = html.EscapeString(title)
	a.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><title>%s</title></head>\n<body>\n<h1>%s</h1>\n<p>%s</p>\n<h2>API</h2>\n<ul>\n",
			title, title, html.EscapeString(status()))
		for _, rt := range a.routes {
			effect := "read"
			if rt.mutates {
				effect = "mutation"
			}
			fmt.Fprintf(w, "<li>POST %s &middot; %s &middot; %s</li>\n", rt.path, rt.class, effect)
		}
		fmt.Fprint(w, "</ul>\n</body></html>\n")
	})
}
