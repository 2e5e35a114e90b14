package broker

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sensorsafe/internal/auth"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/obs"
	"sensorsafe/internal/ruleindex"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/timeutil"
)

// metricSearches counts contributor searches; pair it with the
// broker.search span histogram for latency.
var metricSearches = obs.NewCounter("sensorsafe_broker_searches_total",
	"Contributor searches evaluated against replicated rules.")

// SearchQuery describes the data a consumer needs, so the broker can find
// contributors whose privacy rules would actually release it (paper §5.2:
// "finding data contributors who share ECG and respiration sensor data at
// the location labeled 'work' from 9am to 6pm on weekdays").
type SearchQuery struct {
	// Sensors that must be shared as raw data.
	Sensors []string `json:"sensors,omitempty"`
	// Contexts maps a category to the coarsest acceptable level; e.g.
	// {Stress: LevelBinary} accepts Raw or Binary but not NotShared.
	Contexts map[rules.Category]rules.Level `json:"contexts,omitempty"`
	// LocationLabel evaluates the rules at the contributor's own labeled
	// place ("work", "home"); contributors lacking the label do not match.
	LocationLabel string `json:"locationLabel,omitempty"`
	// Region evaluates the rules inside an explicit area instead.
	Region geo.Rect `json:"region,omitempty"`
	// RepeatTime restricts the probe instants to a weekly window.
	RepeatTime timeutil.Repeated `json:"-"`
	// TimeRange restricts the probe instants to an absolute range.
	TimeRange timeutil.Range `json:"-"`
	// ActiveContexts probe the rules under specific behavioural contexts
	// (e.g. find contributors who share stress data *while driving*).
	ActiveContexts []string `json:"activeContexts,omitempty"`
	// Reference anchors probe-time generation (now() when zero) so search
	// results are reproducible.
	Reference time.Time `json:"reference,omitempty"`
}

// Validate checks the query.
func (q *SearchQuery) Validate() error {
	for _, s := range q.Sensors {
		if s == "" {
			return fmt.Errorf("broker: empty sensor in search")
		}
	}
	for cat, lvl := range q.Contexts {
		if !rules.ValidLevel(cat, lvl) {
			return fmt.Errorf("broker: invalid level %v for %s", lvl, cat)
		}
	}
	for _, c := range q.ActiveContexts {
		if _, err := rules.ParseContextLabel(c); err != nil {
			return err
		}
	}
	if !q.Region.IsZero() && !q.Region.Valid() {
		return fmt.Errorf("broker: invalid search region")
	}
	return nil
}

// SearchHit pairs a matched contributor with the store holding their
// data, so a consumer (or the federation engine) can fan out queries to
// the stores without a Directory round-trip per hit.
type SearchHit struct {
	Contributor string `json:"contributor"`
	StoreAddr   string `json:"storeAddr"`
}

// SearchCtx returns the names of contributors whose replicated rules
// release everything the query demands to this consumer, sorted. A
// contributor matches when at least one probe location passes at every
// probe instant.
func (s *Service) SearchCtx(ctx context.Context, key auth.APIKey, q *SearchQuery) ([]string, error) {
	hits, err := s.SearchInfoCtx(ctx, key, q)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(hits))
	for i, h := range hits {
		names[i] = h.Contributor
	}
	return names, nil
}

// SearchInfoCtx is SearchCtx with store addresses: it returns
// {contributor, storeAddr} pairs sorted by contributor, the one-call
// resolution path federated cohort queries are built on. The
// broker.search span joins ctx's trace.
func (s *Service) SearchInfoCtx(ctx context.Context, key auth.APIKey, q *SearchQuery) ([]SearchHit, error) {
	_, _, stop := obs.Span(ctx, "broker.search")
	defer stop(nil)
	metricSearches.Inc()
	u, e, err := s.authConsumer(key)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	groups := append([]string(nil), e.groups...)
	var matched []SearchHit
	for _, ce := range s.contributors {
		if ce.policy.Len() == 0 {
			continue // no rules: default deny
		}
		if s.contributorMatches(ce, u.Name, groups, q) {
			matched = append(matched, SearchHit{Contributor: ce.name, StoreAddr: ce.storeAddr})
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].Contributor < matched[j].Contributor })
	return matched, nil
}

// contributorMatches probes one contributor's replicated rule set via its
// compiled index — cohort fan-out evaluates every contributor at several
// probe points, so the memoized cache pays off across repeated searches.
func (s *Service) contributorMatches(ce *contributorEntry, consumer string, groups []string, q *SearchQuery) bool {
	locations := probeLocations(ce.policy, q)
	if len(locations) == 0 {
		return false
	}
	instants := probeInstants(q)
	if len(instants) == 0 {
		return false
	}
	sensors := rules.ExpandSensorNames(q.Sensors)
	for _, loc := range locations {
		allOK := true
		for _, at := range instants {
			d := ce.policy.Decide(&rules.Request{
				Consumer:       consumer,
				ConsumerGroups: groups,
				At:             at,
				Location:       loc,
				ActiveContexts: q.ActiveContexts,
			})
			if !decisionSatisfies(d, sensors, q.Contexts) {
				allOK = false
				break
			}
		}
		if allOK {
			return true
		}
	}
	return false
}

func decisionSatisfies(d *rules.Decision, sensors []string, contexts map[rules.Category]rules.Level) bool {
	for _, ch := range sensors {
		if !d.ChannelShared(ch) {
			return false
		}
	}
	for cat, coarsest := range contexts {
		if d.ContextLevel(cat).CoarserThan(coarsest) {
			return false
		}
	}
	if len(sensors) == 0 && len(contexts) == 0 {
		return d.SharesAnything()
	}
	return true
}

// probeLocations picks the coordinates at which to evaluate the rules.
func probeLocations(policy *ruleindex.Index, q *SearchQuery) []geo.Point {
	if q.LocationLabel != "" {
		rg, ok := policy.Engine().Gazetteer().Lookup(q.LocationLabel)
		if !ok {
			return nil
		}
		return []geo.Point{rg.Bounds().Center()}
	}
	if !q.Region.IsZero() {
		return []geo.Point{q.Region.Center()}
	}
	// No location constraint: the contributor matches if the rules release
	// the data either somewhere labeled or anywhere at all; probe each
	// labeled place and one unlabeled point.
	var pts []geo.Point
	for _, rg := range policy.Places() {
		pts = append(pts, rg.Bounds().Center())
	}
	pts = append(pts, geo.Point{Lat: 0, Lon: 0})
	return pts
}

// probeInstants picks the instants at which to evaluate the rules: several
// samples inside the requested weekly window and/or absolute range. With no
// time constraint a single reference instant is used.
func probeInstants(q *SearchQuery) []time.Time {
	ref := q.Reference
	if ref.IsZero() {
		ref = now()
	}
	if !q.TimeRange.Start.IsZero() && ref.Before(q.TimeRange.Start) {
		ref = q.TimeRange.Start
	}

	inRange := func(t time.Time) bool {
		return q.TimeRange.IsZero() || q.TimeRange.Contains(t)
	}
	if q.RepeatTime.IsZero() {
		if !q.TimeRange.IsZero() {
			// Sample the range at start, middle, and just before end.
			start, end := q.TimeRange.Start, q.TimeRange.End
			if start.IsZero() {
				start = ref
			}
			if end.IsZero() {
				return []time.Time{start}
			}
			mid := start.Add(end.Sub(start) / 2)
			last := end.Add(-time.Minute)
			var out []time.Time
			for _, t := range []time.Time{start, mid, last} {
				if inRange(t) {
					out = append(out, t)
				}
			}
			return out
		}
		return []time.Time{ref}
	}
	// Walk up to 14 days from the reference, collecting the midpoint of
	// each matching daily window.
	from, to := q.RepeatTime.Window()
	var out []time.Time
	day := time.Date(ref.Year(), ref.Month(), ref.Day(), 0, 0, 0, 0, ref.Location())
	for i := 0; i < 14 && len(out) < 3; i++ {
		var candidate time.Time
		switch {
		case from == to: // whole-day window
			candidate = day.Add(12 * time.Hour)
		case to < from: // wraps midnight: probe at window start
			candidate = day.Add(time.Duration(from) * time.Minute)
		default:
			candidate = day.Add(time.Duration((from+to)/2) * time.Minute)
		}
		if q.RepeatTime.Contains(candidate) && !candidate.Before(ref) && inRange(candidate) {
			out = append(out, candidate)
		}
		day = day.AddDate(0, 0, 1)
	}
	return out
}
