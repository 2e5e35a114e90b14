package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/binwire"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// peer is the server a typed client calls. StoreClient and BrokerClient
// hold the same three fields, so each converts to a peer.
type peer struct {
	BaseURL string
	HTTP    *http.Client
	Retry   *resilience.Policy
}

// client returns the peer's HTTP client, a 30 s one when none is set.
func (p peer) client() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// call posts req to rt on p as one logical call and decodes the answer,
// mapping error envelopes to Go errors and retrying under p.Retry
// (resilience.Default() when nil). A Req that can write a binary frame
// is sent as one, and a Resp that can decode one is asked for one in
// Accept; anything else travels as JSON. Every attempt carries the same
// X-Request-ID — the context's when present (so a server handling an
// inbound request propagates its ID to outbound service-to-service
// calls), fresh otherwise. A call to a mutating route also carries one
// X-Idempotency-Key for the whole logical call, so a retry whose first
// attempt actually executed (lost response, torn body) replays the
// original outcome server-side instead of applying the mutation twice.
func (rt route[Req, Resp]) call(ctx context.Context, p peer, req *Req) (Resp, error) {
	var resp, zero Resp
	out := outbound{
		url:         strings.TrimRight(p.BaseURL, "/") + rt.path,
		path:        rt.path,
		contentType: "application/json",
	}
	var err error
	if a, ok := any(req).(binAppender); ok {
		out.body, err = a.AppendBinary(nil)
		out.contentType = binwire.MediaType
	} else {
		out.body, err = json.Marshal(req)
	}
	if err != nil {
		return zero, fmt.Errorf("httpapi: encode request: %w", err)
	}
	if _, ok := any(&resp).(binDecoder); ok {
		out.accept = binwire.MediaType
	}
	if obs.RequestID(ctx) == "" {
		ctx = obs.WithRequestID(ctx, obs.NewRequestID())
	}
	if rt.mutates {
		out.idem = obs.NewRequestID()
	}
	hc := p.client()
	err = p.Retry.Do(ctx, rt.path, func(actx context.Context) error {
		return postOnce(actx, hc, &out, &resp)
	})
	if err != nil {
		return zero, err
	}
	return resp, nil
}

// outbound is one logical call's request, the same for every attempt.
type outbound struct {
	url, path   string
	idem        string // X-Idempotency-Key, "" for a read
	contentType string
	body        []byte
	accept      string // Accept, "" for JSON only
}

// postOnce executes one HTTP attempt, classifying failures for the retry
// engine: transport errors and torn bodies are retryable, 5xx/429 carry
// the server's Retry-After hint, and other statuses are terminal. Each
// attempt is its own client span (so hedges and retries are separately
// visible in the trace) and propagates it over the wire via traceparent.
func postOnce(ctx context.Context, hc *http.Client, out *outbound, resp any) error {
	ctx, span, stop := obs.Span(ctx, "http.client")
	span.SetAttr(trace.String("path", out.path))
	err := postAttempt(ctx, hc, out, resp)
	stop(err)
	return err
}

// setCallHeaders joins an outbound request to its context's request and
// trace: the context's X-Request-ID (a fresh one when it carries none) and
// its traceparent.
func setCallHeaders(req *http.Request) {
	ctx := req.Context()
	id := obs.RequestID(ctx)
	if id == "" {
		id = obs.NewRequestID()
	}
	req.Header.Set(requestIDHeader, id)
	if tp := trace.Traceparent(ctx); tp != "" {
		req.Header.Set(trace.Header, tp)
	}
}

func postAttempt(ctx context.Context, hc *http.Client, out *outbound, resp any) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, out.url, bytes.NewReader(out.body))
	if err != nil {
		return resilience.MarkTerminal(fmt.Errorf("httpapi: build request: %w", err))
	}
	httpReq.Header.Set("Content-Type", out.contentType)
	if out.accept != "" {
		httpReq.Header.Set("Accept", out.accept)
	}
	setCallHeaders(httpReq)
	if out.idem != "" {
		httpReq.Header.Set(idempotencyKeyHeader, out.idem)
	}
	httpResp, err := hc.Do(httpReq)
	if err != nil {
		return fmt.Errorf("httpapi: POST %s: %w", out.url, err)
	}
	defer httpResp.Body.Close()
	data, err := readCapped(httpResp.Body, MaxBodyBytes, out.path)
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("httpapi: %s: HTTP %d", out.path, httpResp.StatusCode)
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("httpapi: %s: %s (HTTP %d)", out.path, eb.Error, httpResp.StatusCode)
		}
		return resilience.Status(httpResp.StatusCode, parseRetryAfter(httpResp.Header), "%s", msg)
	}
	if isFrame(httpResp.Header.Get("Content-Type")) {
		if d, ok := resp.(binDecoder); ok {
			err = d.DecodeBinary(data)
		} else {
			err = fmt.Errorf("unrequested %s body", binwire.MediaType)
		}
	} else {
		err = json.Unmarshal(data, resp)
	}
	if err != nil {
		// The full body was read above, so this is a malformed body, not
		// a torn read — retrying would decode the same bytes again.
		return resilience.MarkTerminal(fmt.Errorf("httpapi: decode response: %w", err))
	}
	return nil
}

// readCapped reads a response body of at most limit bytes. A longer body
// is a terminal error naming the cap: the same call would return the
// same body again.
func readCapped(body io.Reader, limit int64, what string) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("httpapi: read response: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, resilience.MarkTerminal(fmt.Errorf("httpapi: %s: response body exceeds the %g MiB cap",
			what, float64(limit)/(1<<20)))
	}
	return data, nil
}

// parseRetryAfter reads a Retry-After header (delta-seconds or HTTP-date).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil && secs >= 0 {
		// Saturate instead of overflowing; the retry policy caps the hint.
		return time.Duration(min(secs, int64(math.MaxInt64/time.Second))) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// GetJSON fetches baseURL+path and decodes its 200 JSON body into v: the
// bounded GET behind the health probes and the debug endpoints. It uses
// hc (a 30 s client when nil), joins the context's request ID and trace
// like the POST calls, and refuses a body longer than limit bytes with an
// error naming the cap. Any other status is a *resilience.StatusError.
func GetJSON(ctx context.Context, hc *http.Client, baseURL, path string, limit int64, v any) error {
	url := strings.TrimRight(baseURL, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("httpapi: build request: %w", err)
	}
	setCallHeaders(req)
	resp, err := peer{HTTP: hc}.client().Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resilience.Status(resp.StatusCode, 0, "httpapi: GET %s: HTTP %d", url, resp.StatusCode)
	}
	data, err := readCapped(resp.Body, limit, "GET "+url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("httpapi: GET %s: decode: %w", url, err)
	}
	return nil
}

// getHealth fetches a server's /healthz report, at most 1 MiB of it.
func getHealth(ctx context.Context, p peer) (Health, error) {
	var h Health
	if err := GetJSON(ctx, p.HTTP, p.BaseURL, "/healthz", 1<<20, &h); err != nil {
		return Health{}, err
	}
	return h, nil
}

// StoreClient is a typed client for a remote data store's API. It
// satisfies phone.Store (UploadCtx, RulesForCtx) and broker.StoreConn
// (Addr, ProvisionConsumer).
type StoreClient struct {
	// BaseURL is the store's address, e.g. "http://store1.example:8080".
	BaseURL string
	// HTTP is the underlying client (30 s timeout default when nil).
	HTTP *http.Client
	// Retry governs transient-failure handling (resilience.Default()
	// when nil). Mutating calls carry an idempotency key so retries are
	// applied exactly once server-side.
	Retry *resilience.Policy
}

// Addr returns the store's base URL.
func (c *StoreClient) Addr() string { return c.BaseURL }

// RegisterCtx creates an account on the store.
func (c *StoreClient) RegisterCtx(ctx context.Context, name, role string) (auth.User, error) {
	resp, err := storeRegister.call(ctx, peer(*c), &registerReq{Name: name, Role: role})
	if err != nil {
		return auth.User{}, err
	}
	r := auth.RoleConsumer
	if resp.Role == auth.RoleContributor.String() {
		r = auth.RoleContributor
	}
	return auth.User{Name: resp.Name, Role: r, Key: resp.Key}, nil
}

// ProvisionConsumer registers a consumer and returns the key (broker
// use). The context's request ID is forwarded so a consumer's connect
// request is correlated across broker and store logs.
func (c *StoreClient) ProvisionConsumer(ctx context.Context, name string) (auth.APIKey, error) {
	u, err := c.RegisterCtx(ctx, name, "consumer")
	if err != nil {
		return "", err
	}
	return u.Key, nil
}

// HealthCtx fetches the store's /healthz report.
func (c *StoreClient) HealthCtx(ctx context.Context) (Health, error) {
	return getHealth(ctx, peer(*c))
}

// UploadCtx sends wave segments (Fig. 5 JSON on the wire).
func (c *StoreClient) UploadCtx(ctx context.Context, key auth.APIKey, segs []*wavesegment.Segment) (int, error) {
	resp, err := storeUpload.call(ctx, peer(*c), &uploadReq{Key: key, Segments: segs})
	return resp.Records, err
}

// QueryCtx runs an enforced consumer query.
func (c *StoreClient) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	resp, err := storeQuery.call(ctx, peer(*c), &queryReq{Key: key, Query: q})
	return resp.Releases, err
}

// QueryTextCtx runs an enforced consumer query written in the mini-language.
func (c *StoreClient) QueryTextCtx(ctx context.Context, key auth.APIKey, text string) ([]*abstraction.Release, error) {
	resp, err := storeQuery.call(ctx, peer(*c), &queryReq{Key: key, Text: text})
	return resp.Releases, err
}

// QueryOwnCtx retrieves the owner's raw data.
func (c *StoreClient) QueryOwnCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*wavesegment.Segment, error) {
	resp, err := storeQueryOwn.call(ctx, peer(*c), &queryReq{Key: key, Query: q})
	return resp.Segments, err
}

// SetRulesCtx replaces the owner's privacy rules (Fig. 4 JSON).
func (c *StoreClient) SetRulesCtx(ctx context.Context, key auth.APIKey, ruleSetJSON []byte) error {
	_, err := storeRulesSet.call(ctx, peer(*c), &rulesSetReq{Key: key, Rules: ruleSetJSON})
	return err
}

// PolicyCtx fetches the owner's privacy rules, labeled places and their
// version in one request.
func (c *StoreClient) PolicyCtx(ctx context.Context, key auth.APIKey) (ruleindex.State, error) {
	resp, err := storeRulesGet.call(ctx, peer(*c), &rulesGetReq{Key: key})
	if err != nil {
		return ruleindex.State{}, err
	}
	return ruleindex.State{Rules: resp.Rules, Places: resp.Places, RuleVersion: resp.RuleVersion}, nil
}

// DefinePlaceCtx registers a labeled region.
func (c *StoreClient) DefinePlaceCtx(ctx context.Context, key auth.APIKey, label string, region geo.Region) error {
	_, err := storePlacesDefine.call(ctx, peer(*c),
		&placeDefineReq{Key: key, Label: label, Region: region})
	return err
}

// AssignConsumerGroupsCtx records a consumer's groups for the owner's
// group-scoped rules.
func (c *StoreClient) AssignConsumerGroupsCtx(ctx context.Context, key auth.APIKey, consumer string, groups []string) error {
	_, err := storeGroupsAssign.call(ctx, peer(*c),
		&groupsAssignReq{Key: key, Consumer: consumer, Groups: groups})
	return err
}

// AuditCtx fetches the owner's access trail, newest first.
func (c *StoreClient) AuditCtx(ctx context.Context, key auth.APIKey, consumer string, since time.Time, limit int) ([]audit.Event, error) {
	req := &auditEventsReq{Key: key, Consumer: consumer, Limit: limit}
	if !since.IsZero() {
		req.Since = since.Format(time.RFC3339)
	}
	resp, err := storeAuditEvents.call(ctx, peer(*c), req)
	return resp.Events, err
}

// AuditSummaryCtx fetches the owner's per-consumer access aggregates.
func (c *StoreClient) AuditSummaryCtx(ctx context.Context, key auth.APIKey) ([]audit.ConsumerSummary, error) {
	resp, err := storeAuditSummary.call(ctx, peer(*c), &rulesGetReq{Key: key})
	return resp.Consumers, err
}

// RotateKeyCtx invalidates the presented key and returns a fresh one.
// The idempotency key matters here: a retried rotation must not rotate
// twice and strand the client with a key it never saw.
func (c *StoreClient) RotateKeyCtx(ctx context.Context, key auth.APIKey) (auth.APIKey, error) {
	resp, err := storeRotate.call(ctx, peer(*c), &rulesGetReq{Key: key})
	return resp.Key, err
}

// RecommendCtx fetches privacy-rule suggestions mined from the owner's data.
func (c *StoreClient) RecommendCtx(ctx context.Context, key auth.APIKey, minOverlap float64, minDuration time.Duration) ([]recommend.Suggestion, error) {
	req := &recommendReq{Key: key, MinOverlap: minOverlap}
	if minDuration > 0 {
		req.MinDuration = minDuration.String()
	}
	resp, err := storeRecommend.call(ctx, peer(*c), req)
	return resp.Suggestions, err
}

// RulesForCtx downloads and compiles the owner's policy — the phone's
// §5.3 path. Returns nil when the owner has no rules.
func (c *StoreClient) RulesForCtx(ctx context.Context, key auth.APIKey) (*rules.Engine, error) {
	st, err := c.PolicyCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	policy, err := ruleindex.Load(st)
	if err != nil || policy.Len() == 0 {
		return nil, err
	}
	return policy.Engine(), nil
}

// BrokerClient is a typed client for the broker's API. It satisfies
// datastore.SyncTarget and datastore.Directory so a networked store can
// push replicas and registrations.
type BrokerClient struct {
	BaseURL string
	HTTP    *http.Client
	// Retry governs transient-failure handling (resilience.Default()
	// when nil).
	Retry *resilience.Policy
}

// HealthCtx fetches the broker's /healthz report.
func (c *BrokerClient) HealthCtx(ctx context.Context) (Health, error) {
	return getHealth(ctx, peer(*c))
}

// RegisterConsumerCtx creates a consumer account.
func (c *BrokerClient) RegisterConsumerCtx(ctx context.Context, name string) (auth.User, error) {
	resp, err := brokerConsumersRegister.call(ctx, peer(*c), &registerReq{Name: name})
	if err != nil {
		return auth.User{}, err
	}
	return auth.User{Name: resp.Name, Role: auth.RoleConsumer, Key: resp.Key}, nil
}

// RegisterContributorCtx records a contributor → store mapping.
func (c *BrokerClient) RegisterContributorCtx(ctx context.Context, name, storeAddr string) error {
	_, err := brokerContributorsRegister.call(ctx, peer(*c),
		&brokerRegisterContribReq{Name: name, StoreAddr: storeAddr})
	return err
}

// SyncRulesCtx pushes a contributor's versioned rule replica
// (datastore.SyncTarget). A broker holding a newer version rejects the
// push with resilience.ErrStaleVersion.
func (c *BrokerClient) SyncRulesCtx(ctx context.Context, contributor string, version uint64, ruleSetJSON []byte, places []geo.Region) error {
	_, err := brokerSync.call(ctx, peer(*c),
		&brokerSyncReq{Contributor: contributor, Version: version, Rules: ruleSetJSON, Places: places})
	return err
}

// SyncDigestCtx reports the store's replica versions and returns the
// contributors whose broker replica is stale (datastore.SyncTarget).
// Re-execution returns fresh staleness, so no idempotency key is needed.
func (c *BrokerClient) SyncDigestCtx(ctx context.Context, storeAddr string, versions map[string]uint64) ([]string, error) {
	resp, err := brokerSyncDigest.call(ctx, peer(*c), &syncDigestReq{StoreAddr: storeAddr, Versions: versions})
	return resp.Stale, err
}

// ReplicasCtx lists the broker's per-contributor replica status.
func (c *BrokerClient) ReplicasCtx(ctx context.Context) ([]broker.ReplicaStatus, error) {
	resp, err := brokerReplicas.call(ctx, peer(*c), &struct{}{})
	return resp.Replicas, err
}

// DirectoryCtx lists contributors.
func (c *BrokerClient) DirectoryCtx(ctx context.Context, key auth.APIKey) ([]broker.ContributorInfo, error) {
	resp, err := brokerDirectory.call(ctx, peer(*c), &keyReq{Key: key})
	return resp.Contributors, err
}

// ConnectCtx provisions (or fetches) the consumer's credential for a
// contributor's store.
func (c *BrokerClient) ConnectCtx(ctx context.Context, key auth.APIKey, contributor string) (broker.Credential, error) {
	resp, err := brokerConnect.call(ctx, peer(*c), &connectReq{Key: key, Contributor: contributor})
	return resp, err
}

// CredentialsCtx fetches every vaulted credential.
func (c *BrokerClient) CredentialsCtx(ctx context.Context, key auth.APIKey) ([]broker.Credential, error) {
	resp, err := brokerCredentials.call(ctx, peer(*c), &keyReq{Key: key})
	return resp.Credentials, err
}

// SearchCtx runs a contributor search.
func (c *BrokerClient) SearchCtx(ctx context.Context, key auth.APIKey, q *broker.SearchQuery) ([]string, error) {
	hits, err := c.SearchInfoCtx(ctx, key, q)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(hits))
	for i, h := range hits {
		names[i] = h.Contributor
	}
	return names, nil
}

// SearchInfoCtx runs a contributor search returning {contributor,
// storeAddr} pairs, saving the per-hit Directory round-trip.
func (c *BrokerClient) SearchInfoCtx(ctx context.Context, key auth.APIKey, q *broker.SearchQuery) ([]broker.SearchHit, error) {
	wire := &searchWire{
		Key:            key,
		Sensors:        q.Sensors,
		LocationLabel:  q.LocationLabel,
		ActiveContexts: q.ActiveContexts,
	}
	if !q.Region.IsZero() {
		r := q.Region
		wire.Region = &r
	}
	if len(q.Contexts) > 0 {
		wire.Contexts = make(map[string]string, len(q.Contexts))
		for cat, lvl := range q.Contexts {
			wire.Contexts[string(cat)] = lvl.String()
		}
	}
	if !q.RepeatTime.IsZero() {
		wire.RepeatDay = q.RepeatTime.DayNames()
		from, to := q.RepeatTime.Window()
		if from != to {
			wire.RepeatHourMin = []string{from.String(), to.String()}
		}
	}
	if !q.TimeRange.Start.IsZero() {
		wire.TimeStart = q.TimeRange.Start.Format(time.RFC3339)
	}
	if !q.TimeRange.End.IsZero() {
		wire.TimeEnd = q.TimeRange.End.Format(time.RFC3339)
	}
	if !q.Reference.IsZero() {
		wire.Reference = q.Reference.Format(time.RFC3339)
	}
	resp, err := brokerSearch.call(ctx, peer(*c), wire)
	return resp.Hits, err
}

// SaveListCtx stores a named contributor list.
func (c *BrokerClient) SaveListCtx(ctx context.Context, key auth.APIKey, name string, members []string) error {
	_, err := brokerListsSave.call(ctx, peer(*c),
		&listSaveReq{Key: key, Name: name, Members: members})
	return err
}

// ListCtx fetches a saved contributor list.
func (c *BrokerClient) ListCtx(ctx context.Context, key auth.APIKey, name string) ([]string, error) {
	resp, err := brokerListsGet.call(ctx, peer(*c), &listGetReq{Key: key, Name: name})
	return resp.Members, err
}

// CreateStudyCtx declares a study.
func (c *BrokerClient) CreateStudyCtx(ctx context.Context, name string) error {
	_, err := brokerStudiesCreate.call(ctx, peer(*c), &studyReq{Study: name})
	return err
}

// JoinStudyCtx adds the consumer to a study.
func (c *BrokerClient) JoinStudyCtx(ctx context.Context, key auth.APIKey, study string) error {
	_, err := brokerStudiesJoin.call(ctx, peer(*c), &studyReq{Key: key, Study: study})
	return err
}

// StudyMembersCtx lists a study's members.
func (c *BrokerClient) StudyMembersCtx(ctx context.Context, study string) ([]string, error) {
	resp, err := brokerStudiesMembers.call(ctx, peer(*c), &studyReq{Study: study})
	return resp.Members, err
}

// EnrollContributorCtx adds a contributor to a study's cohort roster.
func (c *BrokerClient) EnrollContributorCtx(ctx context.Context, study, contributor string) error {
	_, err := brokerStudiesEnroll.call(ctx, peer(*c),
		&studyReq{Study: study, Contributor: contributor})
	return err
}

// StudyContributorsCtx lists a study's enrolled contributor cohort.
func (c *BrokerClient) StudyContributorsCtx(ctx context.Context, study string) ([]string, error) {
	resp, err := brokerStudiesContributors.call(ctx, peer(*c), &studyReq{Study: study})
	return resp.Contributors, err
}
