package wavesegment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sensorsafe/internal/binwire"
	"sensorsafe/internal/geo"
)

// timeWire is the timestamp layout used in segment JSON.
const timeWire = time.RFC3339Nano

// MarshalJSON renders the segment in the Fig. 5 wire shape, so segments
// embedded in API responses always serialize consistently.
func (s *Segment) MarshalJSON() ([]byte, error) { return MarshalJSONSegment(s) }

// UnmarshalJSON parses the Fig. 5 wire shape.
func (s *Segment) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	parsed, err := UnmarshalJSONSegment(data)
	if err != nil {
		return err
	}
	*s = *parsed
	return nil
}

// jsonWire is the paper's Fig. 5 JSON shape: metadata (start time,
// sampling interval, location, tuple format) plus the value blob,
//
//	{"contributor":…,"start_time":…,"interval_ms":…,"location":{"lat":…,"lon":…},
//	 "format":[…],"data":[[…],…],"timestamps":[…],"annotations":[…]}
//
// contributor is left out when empty and annotations when there are none.
// Timestamped (non-periodic) segments carry per-sample instants in
// timestamps, mirroring the paper's "stored in the value blob as
// additional sensor channels"; uniform ones leave it out.
type jsonWire struct {
	Contributor string       `json:"contributor,omitempty"`
	StartTime   string       `json:"start_time"`
	IntervalMS  float64      `json:"interval_ms"`
	Location    geo.Point    `json:"location"`
	Format      []string     `json:"format"`
	Data        [][]float64  `json:"data"`
	Timestamps  []string     `json:"timestamps,omitempty"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// MarshalJSONSegment encodes a segment in the paper's Fig. 5 JSON shape.
func MarshalJSONSegment(s *Segment) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := jsonWire{
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

// UnmarshalJSONSegment decodes a Fig. 5-shaped JSON document. The
// interval is rounded to the nearest nanosecond, so every segment
// survives a round trip. A timestamped segment starts at its first
// timestamp, as a decoded blob does.
func UnmarshalJSONSegment(data []byte) (*Segment, error) {
	var w jsonWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("wavesegment: bad segment JSON: %w", err)
	}
	s := &Segment{
		Contributor: w.Contributor,
		Interval:    time.Duration(math.Round(w.IntervalMS * float64(time.Millisecond))),
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
		s.Start = s.Timestamps[0]
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Binary blob codec. Databases store sequences of multi-channel samples as
// blobs (paper §5.1); this is the blob layout the storage engine persists
// and a binary frame carries:
//
//	magic "WSG1"
//	flags byte (bit0: per-sample timestamps)
//	contributor string
//	start int64 unix-nanos
//	interval int64 ns
//	location 2×float64
//	channel count uvarint, then channel name strings
//	sample count uvarint, then row-major float64 values
//	[timestamps: int64 unix-nanos per sample]
//	annotation count uvarint, then {context string, start, end int64}
//
// All integers little-endian; strings are uvarint length + UTF-8 bytes.
var blobMagic = [4]byte{'W', 'S', 'G', '1'}

const flagTimestamped = 1

// annotationMinBytes is the smallest encoded annotation: an empty
// context and two instants.
const annotationMinBytes = 1 + 8 + 8

// MarshalBinary encodes the segment into the storage blob layout.
func MarshalBinary(s *Segment) ([]byte, error) { return s.AppendBinary(nil) }

// AppendBinary appends the segment in the blob layout.
func (s *Segment) AppendBinary(b []byte) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return b, err
	}
	var flags byte
	if s.Interval <= 0 {
		flags |= flagTimestamped
	}
	b = append(b, blobMagic[:]...)
	b = append(b, flags)
	b = binwire.AppendString(b, s.Contributor)
	b = appendInt64(b, s.StartTime().UnixNano())
	b = appendInt64(b, int64(s.Interval))
	b = binwire.AppendFloat64(b, s.Location.Lat)
	b = binwire.AppendFloat64(b, s.Location.Lon)
	b = binary.AppendUvarint(b, uint64(len(s.Channels)))
	for _, c := range s.Channels {
		b = binwire.AppendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Values)))
	for _, row := range s.Values {
		for _, v := range row {
			b = binwire.AppendFloat64(b, v)
		}
	}
	if flags&flagTimestamped != 0 {
		for _, t := range s.Timestamps {
			b = appendInt64(b, t.UnixNano())
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Annotations)))
	for _, a := range s.Annotations {
		b = binwire.AppendString(b, a.Context)
		b = appendInt64(b, a.Start.UnixNano())
		b = appendInt64(b, a.End.UnixNano())
	}
	return b, nil
}

func appendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// CheckFinite fails on the first NaN or infinite value or coordinate: a
// binary frame refuses them, as JSON cannot carry them.
func (s *Segment) CheckFinite() error {
	for _, f := range [2]float64{s.Location.Lat, s.Location.Lon} {
		if !finite(f) {
			return fmt.Errorf("wavesegment: location %w: %v", binwire.ErrNonFinite, f)
		}
	}
	for i, row := range s.Values {
		for _, v := range row {
			if !finite(v) {
				return fmt.Errorf("wavesegment: sample %d %w: %v", i, binwire.ErrNonFinite, v)
			}
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// UnmarshalBinary decodes a storage blob produced by MarshalBinary,
// whatever floats it holds.
func UnmarshalBinary(data []byte) (*Segment, error) {
	s := new(Segment)
	if err := s.decodeBlob(binwire.NewReader(data), false); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeBinary decodes the blob that comes next in r into s, as a binary
// frame carries it: a NaN or infinite value or coordinate fails. A
// failure is latched in r.
func (s *Segment) DecodeBinary(r *binwire.Reader) { r.Fail(s.decodeBlob(r, true)) }

// decodeBlob reads one blob from r into s. Every count is checked
// against the bytes left before anything is allocated for it, so a blob
// never makes the decoder allocate much more than its own length.
func (s *Segment) decodeBlob(r *binwire.Reader, finiteOnly bool) error {
	if m := r.Bytes(4); m == nil || [4]byte(m) != blobMagic {
		return fmt.Errorf("wavesegment: bad blob magic %q", m)
	}
	flags := r.Byte()
	s.Contributor = r.Str()
	startNanos := r.Int64()
	s.Interval = time.Duration(r.Int64())
	s.Location.Lat = r.Float64()
	s.Location.Lon = r.Float64()
	nch := r.Count(1) // a channel name takes one byte at least
	if r.Err() == nil && nch == 0 {
		return ErrNoChannels
	}
	s.Channels = make([]string, nch)
	for i := range s.Channels {
		s.Channels[i] = r.Str()
	}
	rowBytes := 8 * nch
	if flags&flagTimestamped != 0 {
		rowBytes += 8
	}
	n := r.Count(rowBytes)
	raw := r.Bytes(8 * n * nch)
	if err := r.Err(); err != nil {
		return fmt.Errorf("wavesegment: corrupt blob: %w", err)
	}
	flat := make([]float64, n*nch)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if finiteOnly && !finite(flat[i]) {
			return fmt.Errorf("wavesegment: sample %d %w: %v", i/nch, binwire.ErrNonFinite, flat[i])
		}
	}
	s.Values = make([][]float64, n)
	for i := range s.Values {
		s.Values[i] = flat[i*nch : (i+1)*nch : (i+1)*nch]
	}
	if flags&flagTimestamped != 0 {
		s.Interval = 0
		s.Timestamps = make([]time.Time, n)
		for i := range s.Timestamps {
			s.Timestamps[i] = time.Unix(0, r.Int64()).UTC()
		}
		if n > 0 {
			s.Start = s.Timestamps[0]
		}
	} else {
		s.Start = time.Unix(0, startNanos).UTC()
	}
	if na := r.Count(annotationMinBytes); na > 0 {
		s.Annotations = make([]Annotation, na)
		for i := range s.Annotations {
			s.Annotations[i].Context = r.Str()
			s.Annotations[i].Start = time.Unix(0, r.Int64()).UTC()
			s.Annotations[i].End = time.Unix(0, r.Int64()).UTC()
		}
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("wavesegment: corrupt blob: %w", err)
	}
	if finiteOnly && (!finite(s.Location.Lat) || !finite(s.Location.Lon)) {
		return fmt.Errorf("wavesegment: location %w: %v", binwire.ErrNonFinite, s.Location)
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("wavesegment: decoded blob invalid: %w", err)
	}
	return nil
}
