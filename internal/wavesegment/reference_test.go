package wavesegment

import (
	"encoding/json"
	"fmt"
	"time"

	"sensorsafe/internal/geo"
)

// The reflection-based Fig. 5 codec the one-pass one replaced, kept as the
// oracle the differential tests and fuzzer compare against.

type referenceWire struct {
	Contributor string       `json:"contributor,omitempty"`
	StartTime   string       `json:"start_time"`
	IntervalMS  float64      `json:"interval_ms"`
	Location    geo.Point    `json:"location"`
	Format      []string     `json:"format"`
	Data        [][]float64  `json:"data"`
	Timestamps  []string     `json:"timestamps,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

func referenceMarshalJSONSegment(s *Segment) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := referenceWire{
		Contributor: s.Contributor,
		StartTime:   s.StartTime().Format(timeWire),
		IntervalMS:  float64(s.Interval) / float64(time.Millisecond),
		Location:    s.Location,
		Format:      s.Channels,
		Data:        s.Values,
		Annotations: s.Annotations,
	}
	if s.Interval <= 0 {
		w.Timestamps = make([]string, len(s.Timestamps))
		for i, t := range s.Timestamps {
			w.Timestamps[i] = t.Format(timeWire)
		}
	}
	return json.Marshal(w)
}

func referenceUnmarshalJSONSegment(data []byte) (*Segment, error) {
	var w referenceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("wavesegment: bad segment JSON: %w", err)
	}
	s := &Segment{
		Contributor: w.Contributor,
		Interval:    time.Duration(w.IntervalMS * float64(time.Millisecond)),
		Location:    w.Location,
		Channels:    w.Format,
		Values:      w.Data,
		Annotations: w.Annotations,
	}
	start, err := time.Parse(timeWire, w.StartTime)
	if err != nil {
		return nil, fmt.Errorf("wavesegment: bad start_time: %w", err)
	}
	s.Start = start
	if len(w.Timestamps) > 0 {
		s.Interval = 0
		s.Timestamps = make([]time.Time, len(w.Timestamps))
		for i, ts := range w.Timestamps {
			t, err := time.Parse(timeWire, ts)
			if err != nil {
				return nil, fmt.Errorf("wavesegment: bad timestamp %d: %w", i, err)
			}
			s.Timestamps[i] = t
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
