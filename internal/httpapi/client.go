package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sensorsafe/internal/abstraction"
	"sensorsafe/internal/audit"
	"sensorsafe/internal/auth"
	"sensorsafe/internal/broker"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/obs/trace"
	"sensorsafe/internal/query"
	"sensorsafe/internal/recommend"
	"sensorsafe/internal/resilience"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/wavesegment"
)

// doJSON posts a JSON body and decodes the JSON response, mapping error
// envelopes to Go errors, retrying under pol (resilience.Default() when
// nil). Every attempt carries the same X-Request-ID — the context's when
// present (so a server handling an inbound request propagates its ID to
// outbound service-to-service calls), fresh otherwise. Mutating calls
// additionally carry one X-Idempotency-Key for the whole logical call, so
// a retry whose first attempt actually executed (lost response, torn
// body) replays the original outcome server-side instead of applying the
// mutation twice.
func doJSON(ctx context.Context, hc *http.Client, pol *resilience.Policy, baseURL, path string, mutating bool, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("httpapi: encode request: %w", err)
	}
	url := strings.TrimRight(baseURL, "/") + path
	if obs.RequestID(ctx) == "" {
		ctx = obs.WithRequestID(ctx, obs.NewRequestID())
	}
	var idem string
	if mutating {
		idem = obs.NewRequestID()
	}
	return pol.Do(ctx, path, func(actx context.Context) error {
		return postOnce(actx, hc, url, path, idem, body, resp)
	})
}

// postOnce executes one HTTP attempt, classifying failures for the retry
// engine: transport errors and torn bodies are retryable, 5xx/429 carry
// the server's Retry-After hint, and other statuses are terminal. Each
// attempt is its own client span (so hedges and retries are separately
// visible in the trace) and propagates it over the wire via traceparent.
func postOnce(ctx context.Context, hc *http.Client, url, path, idem string, body []byte, resp any) error {
	ctx, span, stop := obs.Span(ctx, "http.client")
	span.SetAttr(trace.String("path", path))
	err := postAttempt(ctx, hc, url, path, idem, body, resp)
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

func postAttempt(ctx context.Context, hc *http.Client, url, path, idem string, body []byte, resp any) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return resilience.MarkTerminal(fmt.Errorf("httpapi: build request: %w", err))
	}
	httpReq.Header.Set("Content-Type", "application/json")
	setCallHeaders(httpReq)
	if idem != "" {
		httpReq.Header.Set(idempotencyKeyHeader, idem)
	}
	httpResp, err := hc.Do(httpReq)
	if err != nil {
		return fmt.Errorf("httpapi: POST %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("httpapi: read response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("httpapi: %s: HTTP %d", path, httpResp.StatusCode)
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("httpapi: %s: %s (HTTP %d)", path, eb.Error, httpResp.StatusCode)
		}
		return resilience.Status(httpResp.StatusCode, parseRetryAfter(httpResp.Header), "%s", msg)
	}
	if resp == nil {
		return nil
	}
	if err := json.Unmarshal(data, resp); err != nil {
		// The full body was read above, so this is malformed JSON, not a
		// torn read — retrying would decode the same bytes again.
		return resilience.MarkTerminal(fmt.Errorf("httpapi: decode response: %w", err))
	}
	return nil
}

// parseRetryAfter reads a Retry-After header (delta-seconds or HTTP-date).
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func defaultClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}

// getHealth fetches and decodes a server's /healthz report, carrying the
// same request-ID correlation as the JSON endpoints.
func getHealth(ctx context.Context, hc *http.Client, baseURL string) (Health, error) {
	url := strings.TrimRight(baseURL, "/") + "/healthz"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Health{}, fmt.Errorf("httpapi: build request: %w", err)
	}
	setCallHeaders(req)
	resp, err := hc.Do(req)
	if err != nil {
		return Health{}, fmt.Errorf("httpapi: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Health{}, fmt.Errorf("httpapi: /healthz: HTTP %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("httpapi: decode health: %w", err)
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

func (c *StoreClient) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient()
}

// call runs one logical JSON call under the client's retry policy.
func (c *StoreClient) call(ctx context.Context, path string, mutating bool, req, resp any) error {
	return doJSON(ctx, c.hc(), c.Retry, c.BaseURL, path, mutating, req, resp)
}

// Addr returns the store's base URL.
func (c *StoreClient) Addr() string { return c.BaseURL }

// RegisterCtx creates an account on the store.
func (c *StoreClient) RegisterCtx(ctx context.Context, name, role string) (auth.User, error) {
	var resp registerResp
	if err := c.call(ctx, "/api/register", true, &registerReq{Name: name, Role: role}, &resp); err != nil {
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
	return getHealth(ctx, c.hc(), c.BaseURL)
}

// UploadCtx sends wave segments (Fig. 5 JSON on the wire).
func (c *StoreClient) UploadCtx(ctx context.Context, key auth.APIKey, segs []*wavesegment.Segment) (int, error) {
	var resp uploadResp
	if err := c.call(ctx, "/api/upload", true, &uploadReq{Key: key, Segments: segs}, &resp); err != nil {
		return 0, err
	}
	return resp.Records, nil
}

// QueryCtx runs an enforced consumer query.
func (c *StoreClient) QueryCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*abstraction.Release, error) {
	var resp queryResp
	if err := c.call(ctx, "/api/query", false, &queryReq{Key: key, Query: q}, &resp); err != nil {
		return nil, err
	}
	return resp.Releases, nil
}

// QueryTextCtx runs an enforced consumer query written in the mini-language.
func (c *StoreClient) QueryTextCtx(ctx context.Context, key auth.APIKey, text string) ([]*abstraction.Release, error) {
	var resp queryResp
	if err := c.call(ctx, "/api/query", false, &queryReq{Key: key, Text: text}, &resp); err != nil {
		return nil, err
	}
	return resp.Releases, nil
}

// QueryOwnCtx retrieves the owner's raw data.
func (c *StoreClient) QueryOwnCtx(ctx context.Context, key auth.APIKey, q *query.Query) ([]*wavesegment.Segment, error) {
	var resp queryOwnResp
	if err := c.call(ctx, "/api/queryown", false, &queryReq{Key: key, Query: q}, &resp); err != nil {
		return nil, err
	}
	return resp.Segments, nil
}

// SetRulesCtx replaces the owner's privacy rules (Fig. 4 JSON).
func (c *StoreClient) SetRulesCtx(ctx context.Context, key auth.APIKey, ruleSetJSON []byte) error {
	return c.call(ctx, "/api/rules/set", true, &rulesSetReq{Key: key, Rules: ruleSetJSON}, &okResp{})
}

// RulesCtx fetches the owner's privacy rules.
func (c *StoreClient) RulesCtx(ctx context.Context, key auth.APIKey) ([]byte, error) {
	var resp rulesGetResp
	if err := c.call(ctx, "/api/rules/get", false, &rulesGetReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Rules, nil
}

// DefinePlaceCtx registers a labeled region.
func (c *StoreClient) DefinePlaceCtx(ctx context.Context, key auth.APIKey, label string, region geo.Region) error {
	return c.call(ctx, "/api/places/define",
		true, &placeDefineReq{Key: key, Label: label, Region: region}, &okResp{})
}

// PlacesCtx lists the owner's labeled regions.
func (c *StoreClient) PlacesCtx(ctx context.Context, key auth.APIKey) ([]geo.Region, error) {
	var resp placesListResp
	if err := c.call(ctx, "/api/places/list", false, &rulesGetReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Places, nil
}

// AssignConsumerGroupsCtx records a consumer's groups for the owner's
// group-scoped rules.
func (c *StoreClient) AssignConsumerGroupsCtx(ctx context.Context, key auth.APIKey, consumer string, groups []string) error {
	return c.call(ctx, "/api/groups/assign",
		true, &groupsAssignReq{Key: key, Consumer: consumer, Groups: groups}, &okResp{})
}

// AuditCtx fetches the owner's access trail, newest first.
func (c *StoreClient) AuditCtx(ctx context.Context, key auth.APIKey, consumer string, since time.Time, limit int) ([]audit.Event, error) {
	req := &auditEventsReq{Key: key, Consumer: consumer, Limit: limit}
	if !since.IsZero() {
		req.Since = since.Format(time.RFC3339)
	}
	var resp auditEventsResp
	if err := c.call(ctx, "/api/audit/events", false, req, &resp); err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// AuditSummaryCtx fetches the owner's per-consumer access aggregates.
func (c *StoreClient) AuditSummaryCtx(ctx context.Context, key auth.APIKey) ([]audit.ConsumerSummary, error) {
	var resp auditSummaryResp
	if err := c.call(ctx, "/api/audit/summary", false, &rulesGetReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Consumers, nil
}

// RotateKeyCtx invalidates the presented key and returns a fresh one.
// The idempotency key matters here: a retried rotation must not rotate
// twice and strand the client with a key it never saw.
func (c *StoreClient) RotateKeyCtx(ctx context.Context, key auth.APIKey) (auth.APIKey, error) {
	var resp registerResp
	if err := c.call(ctx, "/api/rotate", true, &rulesGetReq{Key: key}, &resp); err != nil {
		return "", err
	}
	return resp.Key, nil
}

// RecommendCtx fetches privacy-rule suggestions mined from the owner's data.
func (c *StoreClient) RecommendCtx(ctx context.Context, key auth.APIKey, minOverlap float64, minDuration time.Duration) ([]recommend.Suggestion, error) {
	req := &recommendReq{Key: key, MinOverlap: minOverlap}
	if minDuration > 0 {
		req.MinDuration = minDuration.String()
	}
	var resp recommendResp
	if err := c.call(ctx, "/api/recommend", false, req, &resp); err != nil {
		return nil, err
	}
	return resp.Suggestions, nil
}

// SetPasswordCtx sets the web-UI password, authenticating with the API key.
func (c *StoreClient) SetPasswordCtx(ctx context.Context, key auth.APIKey, password string) error {
	return c.call(ctx, "/api/password", true, &passwordReq{Key: key, Password: password}, &okResp{})
}

// LoginCtx exchanges a username/password for a web session token.
func (c *StoreClient) LoginCtx(ctx context.Context, name, password string) (string, error) {
	var resp loginResp
	if err := c.call(ctx, "/api/login", true, &loginReq{Name: name, Password: password}, &resp); err != nil {
		return "", err
	}
	return resp.Token, nil
}

// RulesForCtx downloads and compiles the owner's rule set — the phone's
// §5.3 path. Returns nil when the owner has no rules yet.
func (c *StoreClient) RulesForCtx(ctx context.Context, key auth.APIKey) (*rules.Engine, error) {
	data, err := c.RulesCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	rs, err := rules.UnmarshalRuleSet(data)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, nil
	}
	places, err := c.PlacesCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	gaz := geo.NewGazetteer()
	for _, rg := range places {
		if err := gaz.Define(rg.Label, rg); err != nil {
			return nil, err
		}
	}
	return rules.NewEngine(rs, gaz)
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

func (c *BrokerClient) hc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultClient()
}

// call runs one logical JSON call under the client's retry policy.
func (c *BrokerClient) call(ctx context.Context, path string, mutating bool, req, resp any) error {
	return doJSON(ctx, c.hc(), c.Retry, c.BaseURL, path, mutating, req, resp)
}

// HealthCtx fetches the broker's /healthz report.
func (c *BrokerClient) HealthCtx(ctx context.Context) (Health, error) {
	return getHealth(ctx, c.hc(), c.BaseURL)
}

// RegisterConsumerCtx creates a consumer account.
func (c *BrokerClient) RegisterConsumerCtx(ctx context.Context, name string) (auth.User, error) {
	var resp registerResp
	if err := c.call(ctx, "/api/consumers/register", true, &registerReq{Name: name}, &resp); err != nil {
		return auth.User{}, err
	}
	return auth.User{Name: resp.Name, Role: auth.RoleConsumer, Key: resp.Key}, nil
}

// RegisterContributorCtx records a contributor → store mapping.
func (c *BrokerClient) RegisterContributorCtx(ctx context.Context, name, storeAddr string) error {
	return c.call(ctx, "/api/contributors/register",
		true, &brokerRegisterContribReq{Name: name, StoreAddr: storeAddr}, &okResp{})
}

// SyncRulesCtx pushes a contributor's versioned rule replica
// (datastore.SyncTarget). A broker holding a newer version rejects the
// push with resilience.ErrStaleVersion.
func (c *BrokerClient) SyncRulesCtx(ctx context.Context, contributor string, version uint64, ruleSetJSON []byte, places []geo.Region) error {
	return c.call(ctx, "/api/sync",
		true, &brokerSyncReq{Contributor: contributor, Version: version, Rules: ruleSetJSON, Places: places}, &okResp{})
}

// SyncDigestCtx reports the store's replica versions and returns the
// contributors whose broker replica is stale (datastore.SyncTarget).
// Re-execution returns fresh staleness, so no idempotency key is needed.
func (c *BrokerClient) SyncDigestCtx(ctx context.Context, storeAddr string, versions map[string]uint64) ([]string, error) {
	var resp syncDigestResp
	if err := c.call(ctx, "/api/sync/digest", false, &syncDigestReq{StoreAddr: storeAddr, Versions: versions}, &resp); err != nil {
		return nil, err
	}
	return resp.Stale, nil
}

// ReplicasCtx lists the broker's per-contributor replica status.
func (c *BrokerClient) ReplicasCtx(ctx context.Context) ([]broker.ReplicaStatus, error) {
	var resp replicasResp
	if err := c.call(ctx, "/api/replicas", false, &struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Replicas, nil
}

// DirectoryCtx lists contributors.
func (c *BrokerClient) DirectoryCtx(ctx context.Context, key auth.APIKey) ([]broker.ContributorInfo, error) {
	var resp directoryResp
	if err := c.call(ctx, "/api/directory", false, &keyReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Contributors, nil
}

// ConnectCtx provisions (or fetches) the consumer's credential for a
// contributor's store.
func (c *BrokerClient) ConnectCtx(ctx context.Context, key auth.APIKey, contributor string) (broker.Credential, error) {
	var resp broker.Credential
	if err := c.call(ctx, "/api/connect", true, &connectReq{Key: key, Contributor: contributor}, &resp); err != nil {
		return broker.Credential{}, err
	}
	return resp, nil
}

// CredentialsCtx fetches every vaulted credential.
func (c *BrokerClient) CredentialsCtx(ctx context.Context, key auth.APIKey) ([]broker.Credential, error) {
	var resp credentialsResp
	if err := c.call(ctx, "/api/credentials", false, &keyReq{Key: key}, &resp); err != nil {
		return nil, err
	}
	return resp.Credentials, nil
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
	var resp searchResp
	if err := c.call(ctx, "/api/search", false, wire, &resp); err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// SaveListCtx stores a named contributor list.
func (c *BrokerClient) SaveListCtx(ctx context.Context, key auth.APIKey, name string, members []string) error {
	return c.call(ctx, "/api/lists/save", true, &listSaveReq{Key: key, Name: name, Members: members}, &okResp{})
}

// ListCtx fetches a saved contributor list.
func (c *BrokerClient) ListCtx(ctx context.Context, key auth.APIKey, name string) ([]string, error) {
	var resp listGetResp
	if err := c.call(ctx, "/api/lists/get", false, &listGetReq{Key: key, Name: name}, &resp); err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// CreateStudyCtx declares a study.
func (c *BrokerClient) CreateStudyCtx(ctx context.Context, name string) error {
	return c.call(ctx, "/api/studies/create", true, &studyReq{Study: name}, &okResp{})
}

// JoinStudyCtx adds the consumer to a study.
func (c *BrokerClient) JoinStudyCtx(ctx context.Context, key auth.APIKey, study string) error {
	return c.call(ctx, "/api/studies/join", true, &studyReq{Key: key, Study: study}, &okResp{})
}

// StudyMembersCtx lists a study's members.
func (c *BrokerClient) StudyMembersCtx(ctx context.Context, study string) ([]string, error) {
	var resp studyMembersResp
	if err := c.call(ctx, "/api/studies/members", false, &studyReq{Study: study}, &resp); err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// EnrollContributorCtx adds a contributor to a study's cohort roster.
func (c *BrokerClient) EnrollContributorCtx(ctx context.Context, study, contributor string) error {
	return c.call(ctx, "/api/studies/enroll",
		true, &studyReq{Study: study, Contributor: contributor}, &okResp{})
}

// StudyContributorsCtx lists a study's enrolled contributor cohort.
func (c *BrokerClient) StudyContributorsCtx(ctx context.Context, study string) ([]string, error) {
	var resp studyContributorsResp
	if err := c.call(ctx, "/api/studies/contributors", false, &studyReq{Study: study}, &resp); err != nil {
		return nil, err
	}
	return resp.Contributors, nil
}
