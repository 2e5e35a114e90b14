// Package query defines the data-retrieval language remote data stores
// expose to consumers (paper §3 "expressive data query language" and §5.2's
// query options: location, time, and data channels). A query can be built
// programmatically, sent as JSON over the HTTP API, or written in a compact
// text form for CLIs:
//
//	contributor(alice) channels(ECG,Respiration)
//	  time(2011-02-01T00:00:00Z, 2011-03-01T00:00:00Z)
//	  region(34,-119,35,-118) context(Drive) limit(100)
//
// Terms may be separated by whitespace or the word "and"; every term is
// optional and unordered.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/rules"
	"sensorsafe/internal/storage"
)

// Query selects stored sensor data.
type Query struct {
	// Contributor restricts to one data contributor.
	Contributor string `json:"contributor,omitempty"`
	// From/To select data overlapping [From, To).
	From time.Time `json:"from,omitempty"`
	To   time.Time `json:"to,omitempty"`
	// Channels restricts to segments carrying at least one listed channel.
	Channels []string `json:"channels,omitempty"`
	// Region restricts to segments recorded inside the rect.
	Region geo.Rect `json:"region,omitempty"`
	// Contexts restricts to spans annotated with at least one listed
	// context label.
	Contexts []string `json:"contexts,omitempty"`
	// Limit caps the number of stored records a consumer query answers
	// from, counting only records that released something (0 =
	// unlimited); a withheld record does not use it up. Storage passes
	// it to the scan as a raw record cap, which is what an owner's
	// review of their own data gets.
	Limit int `json:"limit,omitempty"`
}

// Validate checks field consistency.
func (q *Query) Validate() error {
	if !q.From.IsZero() && !q.To.IsZero() && q.To.Before(q.From) {
		return fmt.Errorf("query: to %v before from %v", q.To, q.From)
	}
	if q.Limit < 0 {
		return fmt.Errorf("query: negative limit")
	}
	if !q.Region.IsZero() && !q.Region.Valid() {
		return fmt.Errorf("query: invalid region %+v", q.Region)
	}
	for _, c := range q.Contexts {
		if _, err := rules.ParseContextLabel(c); err != nil {
			return fmt.Errorf("query: %w", err)
		}
	}
	return nil
}

// Storage lowers the query to a storage-layer scan. Context filtering is
// not part of the scan; stores apply it after annotation lookup.
func (q *Query) Storage() storage.Query {
	return storage.Query{
		Contributor: q.Contributor,
		From:        q.From,
		To:          q.To,
		Channels:    rules.ExpandSensorNames(q.Channels),
		Region:      q.Region,
		Limit:       q.Limit,
	}
}

// String renders the query in the text mini-language (parseable by Parse).
func (q *Query) String() string {
	var terms []string
	if q.Contributor != "" {
		terms = append(terms, fmt.Sprintf("contributor(%s)", q.Contributor))
	}
	if len(q.Channels) > 0 {
		terms = append(terms, fmt.Sprintf("channels(%s)", strings.Join(q.Channels, ",")))
	}
	if !q.From.IsZero() || !q.To.IsZero() {
		f, t := "", ""
		if !q.From.IsZero() {
			f = q.From.Format(time.RFC3339)
		}
		if !q.To.IsZero() {
			t = q.To.Format(time.RFC3339)
		}
		terms = append(terms, fmt.Sprintf("time(%s,%s)", f, t))
	}
	if !q.Region.IsZero() {
		terms = append(terms, fmt.Sprintf("region(%g,%g,%g,%g)",
			q.Region.MinLat, q.Region.MinLon, q.Region.MaxLat, q.Region.MaxLon))
	}
	if len(q.Contexts) > 0 {
		terms = append(terms, fmt.Sprintf("context(%s)", strings.Join(q.Contexts, ",")))
	}
	if q.Limit > 0 {
		terms = append(terms, fmt.Sprintf("limit(%d)", q.Limit))
	}
	return strings.Join(terms, " ")
}

// Parse reads the text mini-language. An empty string is the match-all
// query.
func Parse(s string) (*Query, error) {
	q := &Query{}
	rest := strings.TrimSpace(s)
	for rest != "" {
		// Optional "and" connective.
		if strings.HasPrefix(strings.ToLower(rest), "and ") {
			rest = strings.TrimSpace(rest[4:])
			continue
		}
		open := strings.IndexByte(rest, '(')
		if open < 0 {
			return nil, fmt.Errorf("query: expected term(args) at %q", rest)
		}
		name := strings.ToLower(strings.TrimSpace(rest[:open]))
		closeIdx := strings.IndexByte(rest[open:], ')')
		if closeIdx < 0 {
			return nil, fmt.Errorf("query: unclosed parenthesis in %q", rest)
		}
		args := rest[open+1 : open+closeIdx]
		rest = strings.TrimSpace(rest[open+closeIdx+1:])
		if err := q.applyTerm(name, args); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

func (q *Query) applyTerm(name, args string) error {
	parts := splitArgs(args)
	switch name {
	case "contributor":
		if len(parts) != 1 || parts[0] == "" {
			return fmt.Errorf("query: contributor() takes one name")
		}
		q.Contributor = parts[0]
	case "channels", "channel", "sensor", "sensors":
		if len(parts) == 0 {
			return fmt.Errorf("query: channels() needs at least one name")
		}
		q.Channels = append(q.Channels, parts...)
	case "time":
		if len(parts) != 2 {
			return fmt.Errorf("query: time() takes (from,to); either may be empty")
		}
		var err error
		if parts[0] != "" {
			if q.From, err = time.Parse(time.RFC3339, parts[0]); err != nil {
				return fmt.Errorf("query: bad from time: %w", err)
			}
		}
		if parts[1] != "" {
			if q.To, err = time.Parse(time.RFC3339, parts[1]); err != nil {
				return fmt.Errorf("query: bad to time: %w", err)
			}
		}
	case "region":
		if len(parts) != 4 {
			return fmt.Errorf("query: region() takes (minLat,minLon,maxLat,maxLon)")
		}
		vals := make([]float64, 4)
		for i, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return fmt.Errorf("query: bad region coordinate %q: %w", p, err)
			}
			vals[i] = v
		}
		rect, err := geo.NewRect(geo.Point{Lat: vals[0], Lon: vals[1]}, geo.Point{Lat: vals[2], Lon: vals[3]})
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		q.Region = rect
	case "context", "contexts":
		for _, p := range parts {
			label, err := rules.ParseContextLabel(p)
			if err != nil {
				return fmt.Errorf("query: %w", err)
			}
			q.Contexts = append(q.Contexts, label)
		}
	case "limit":
		if len(parts) != 1 {
			return fmt.Errorf("query: limit() takes one number")
		}
		n, err := strconv.Atoi(parts[0])
		if err != nil || n < 0 {
			return fmt.Errorf("query: bad limit %q", parts[0])
		}
		q.Limit = n
	default:
		return fmt.Errorf("query: unknown term %q", name)
	}
	return nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	raw := strings.Split(s, ",")
	out := make([]string, len(raw))
	for i, p := range raw {
		out[i] = strings.TrimSpace(p)
	}
	return out
}
