package wavesegment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sensorsafe/internal/geo"
	"sensorsafe/internal/jsonwire"
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

// MarshalJSONSegment encodes a segment in the paper's Fig. 5 JSON shape.
func MarshalJSONSegment(s *Segment) ([]byte, error) {
	b, err := s.AppendJSON(make([]byte, 0, 256+12*len(s.Values)*len(s.Channels)))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendJSON appends the segment in the Fig. 5 JSON shape: metadata
// (start time, sampling interval, location, tuple format) plus the value
// blob,
//
//	{"contributor":…,"start_time":…,"interval_ms":…,"location":{"lat":…,"lon":…},
//	 "format":[…],"data":[[…],…],"timestamps":[…],"annotations":[…]}
//
// in one pass, byte for byte what encoding/json writes for that shape.
// contributor is left out when empty and annotations when there are none.
// Timestamped (non-periodic) segments carry per-sample instants in
// timestamps, mirroring the paper's "stored in the value blob as
// additional sensor channels"; uniform ones leave it out.
func (s *Segment) AppendJSON(b []byte) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return b, err
	}
	b = append(b, '{')
	if s.Contributor != "" {
		b = append(b, `"contributor":`...)
		b = jsonwire.AppendString(b, s.Contributor)
		b = append(b, ',')
	}
	b = append(b, `"start_time":"`...)
	b = s.StartTime().AppendFormat(b, timeWire)
	b = append(b, `","interval_ms":`...)
	b, err := jsonwire.AppendFloat(b, float64(s.Interval)/float64(time.Millisecond))
	if err != nil {
		return b, err
	}
	b = append(b, `,"location":`...)
	if b, err = s.Location.AppendJSON(b); err != nil {
		return b, err
	}
	b = append(b, `,"format":[`...)
	for i, c := range s.Channels {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwire.AppendString(b, c)
	}
	b = append(b, `],"data":[`...)
	for i, row := range s.Values {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = jsonwire.AppendFloat(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if s.Interval <= 0 {
		b = append(b, `,"timestamps":[`...)
		for i, t := range s.Timestamps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = t.AppendFormat(b, timeWire)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if len(s.Annotations) > 0 {
		b = append(b, `,"annotations":`...)
		if b, err = AppendAnnotations(b, s.Annotations); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// AppendAnnotations appends a JSON array of annotations. A segment
// carries only a few, so they stay on encoding/json.
func AppendAnnotations(b []byte, as []Annotation) ([]byte, error) {
	js, err := json.Marshal(as)
	return append(b, js...), err
}

// DecodeAnnotations decodes a JSON array of annotations into *as with
// encoding/json, which the few a segment carries do not make slow.
func DecodeAnnotations(r *jsonwire.Reader, as *[]Annotation) error {
	raw, err := r.Raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, as)
}

// UnmarshalJSONSegment decodes a Fig. 5-shaped JSON document.
func UnmarshalJSONSegment(data []byte) (*Segment, error) {
	r := jsonwire.NewReader(data)
	w, err := decodeWire(r)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("wavesegment: bad segment JSON: %w", err)
	}
	return w.segment()
}

// DecodeJSON decodes the Fig. 5 segment that comes next in r, for
// documents that embed segments.
func DecodeJSON(r *jsonwire.Reader) (*Segment, error) {
	w, err := decodeWire(r)
	if err != nil {
		return nil, fmt.Errorf("wavesegment: bad segment JSON: %w", err)
	}
	return w.segment()
}

// wire holds a decoded Fig. 5 document before it becomes a Segment.
type wire struct {
	contributor string
	startTime   string
	intervalMS  float64
	location    geo.Point
	format      []string
	data        [][]float64
	timestamps  []string
	annotations []Annotation
}

// wireFields are the Fig. 5 keys, in wire order.
var wireFields = []string{"contributor", "start_time", "interval_ms", "location", "format", "data", "timestamps", "annotations"}

// decodeWire reads one Fig. 5 object. A key that repeats decodes into
// what the earlier one left, as in encoding/json.
func decodeWire(r *jsonwire.Reader) (*wire, error) {
	w := &wire{}
	if r.Null() {
		return w, nil
	}
	var rows floatArena
	err := r.Object(func(key []byte) error {
		var err error
		switch jsonwire.Field(key, wireFields) {
		case 0:
			return r.StringInto(&w.contributor)
		case 1:
			return r.StringInto(&w.startTime)
		case 2:
			return r.FloatInto(&w.intervalMS)
		case 3:
			return w.location.DecodeJSON(r)
		case 4:
			if r.Null() {
				w.format = nil
				return nil
			}
			w.format, err = jsonwire.Slice(r, w.format, r.StringInto)
		case 5:
			if r.Null() {
				w.data = nil
				return nil
			}
			w.data, err = jsonwire.Slice(r, w.data, func(row *[]float64) error {
				var err error
				switch {
				case r.Null():
					*row = nil
				case *row == nil:
					*row, err = rows.next(r)
				default: // a repeated "data" key decodes into the earlier rows
					*row, err = jsonwire.Slice(r, *row, r.FloatInto)
				}
				return err
			})
		case 6:
			if r.Null() {
				w.timestamps = nil
				return nil
			}
			w.timestamps, err = jsonwire.Slice(r, w.timestamps, r.StringInto)
		case 7:
			return DecodeAnnotations(r, &w.annotations)
		default:
			return r.Skip()
		}
		return err
	})
	return w, err
}

// floatArena carves the rows of one segment out of shared chunks, so a
// segment's values take a few allocations rather than one per row.
type floatArena struct{ buf []float64 }

// next decodes one array of numbers as a row of its own capacity; null
// elements read as 0, as they do in a fresh encoding/json slice.
func (a *floatArena) next(r *jsonwire.Reader) ([]float64, error) {
	if cap(a.buf)-len(a.buf) < 64 {
		a.buf = make([]float64, 0, min(max(2*cap(a.buf), 256), 1<<14))
	}
	start := len(a.buf)
	err := r.Array(func() error {
		var f float64
		err := r.FloatInto(&f)
		a.buf = append(a.buf, f)
		return err
	})
	return a.buf[start:len(a.buf):len(a.buf)], err
}

// segment turns the decoded document into a validated Segment.
func (w *wire) segment() (*Segment, error) {
	s := &Segment{
		Contributor: w.contributor,
		Interval:    time.Duration(w.intervalMS * float64(time.Millisecond)),
		Location:    w.location,
		Channels:    w.format,
		Values:      w.data,
		Annotations: w.annotations,
	}
	start, err := time.Parse(timeWire, w.startTime)
	if err != nil {
		return nil, fmt.Errorf("wavesegment: bad start_time: %w", err)
	}
	s.Start = start
	if len(w.timestamps) > 0 {
		s.Interval = 0
		s.Timestamps = make([]time.Time, len(w.timestamps))
		for i, ts := range w.timestamps {
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

// Binary blob codec. Databases store sequences of multi-channel samples as
// blobs (paper §5.1); this is the blob layout the storage engine persists:
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

// MarshalBinary encodes the segment into the storage blob layout.
func MarshalBinary(s *Segment) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Write(blobMagic[:])
	var flags byte
	if s.Interval <= 0 {
		flags |= flagTimestamped
	}
	buf.WriteByte(flags)
	writeString(&buf, s.Contributor)
	writeInt64(&buf, s.StartTime().UnixNano())
	writeInt64(&buf, int64(s.Interval))
	writeFloat64(&buf, s.Location.Lat)
	writeFloat64(&buf, s.Location.Lon)
	writeUvarint(&buf, uint64(len(s.Channels)))
	for _, c := range s.Channels {
		writeString(&buf, c)
	}
	writeUvarint(&buf, uint64(len(s.Values)))
	for _, row := range s.Values {
		for _, v := range row {
			writeFloat64(&buf, v)
		}
	}
	if flags&flagTimestamped != 0 {
		for _, t := range s.Timestamps {
			writeInt64(&buf, t.UnixNano())
		}
	}
	writeUvarint(&buf, uint64(len(s.Annotations)))
	for _, a := range s.Annotations {
		writeString(&buf, a.Context)
		writeInt64(&buf, a.Start.UnixNano())
		writeInt64(&buf, a.End.UnixNano())
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a storage blob produced by MarshalBinary.
func UnmarshalBinary(data []byte) (*Segment, error) {
	r := &blobReader{data: data}
	var magic [4]byte
	r.read(magic[:])
	if magic != blobMagic {
		return nil, fmt.Errorf("wavesegment: bad blob magic %q", magic[:])
	}
	flags := r.readByte()
	s := &Segment{}
	s.Contributor = r.readString()
	startNanos := r.readInt64()
	s.Interval = time.Duration(r.readInt64())
	s.Location.Lat = r.readFloat64()
	s.Location.Lon = r.readFloat64()
	nch := r.readUvarint()
	if nch > 1<<16 {
		return nil, fmt.Errorf("wavesegment: implausible channel count %d", nch)
	}
	s.Channels = make([]string, nch)
	for i := range s.Channels {
		s.Channels[i] = r.readString()
	}
	n := r.readUvarint()
	if r.err == nil && n*nch*8 > uint64(len(data)) {
		return nil, fmt.Errorf("wavesegment: truncated blob (%d samples claimed)", n)
	}
	s.Values = make([][]float64, n)
	for i := range s.Values {
		row := make([]float64, nch)
		for j := range row {
			row[j] = r.readFloat64()
		}
		s.Values[i] = row
	}
	if flags&flagTimestamped != 0 {
		s.Interval = 0
		s.Timestamps = make([]time.Time, n)
		for i := range s.Timestamps {
			s.Timestamps[i] = time.Unix(0, r.readInt64()).UTC()
		}
		if n > 0 && r.err == nil {
			s.Start = s.Timestamps[0]
		}
	} else {
		s.Start = time.Unix(0, startNanos).UTC()
	}
	na := r.readUvarint()
	if na > 1<<20 {
		return nil, fmt.Errorf("wavesegment: implausible annotation count %d", na)
	}
	if na > 0 {
		s.Annotations = make([]Annotation, na)
		for i := range s.Annotations {
			s.Annotations[i].Context = r.readString()
			s.Annotations[i].Start = time.Unix(0, r.readInt64()).UTC()
			s.Annotations[i].End = time.Unix(0, r.readInt64()).UTC()
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("wavesegment: corrupt blob: %w", r.err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("wavesegment: decoded blob invalid: %w", err)
	}
	return s, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func writeInt64(buf *bytes.Buffer, v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	buf.Write(tmp[:])
}

func writeFloat64(buf *bytes.Buffer, v float64) {
	writeInt64(buf, int64(math.Float64bits(v)))
}

// blobReader is a cursor over blob bytes that latches the first error.
type blobReader struct {
	data []byte
	off  int
	err  error
}

func (r *blobReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", msg, r.off)
	}
}

func (r *blobReader) read(dst []byte) {
	if r.err != nil {
		return
	}
	if r.off+len(dst) > len(r.data) {
		r.fail("short read")
		return
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
}

func (r *blobReader) readByte() byte {
	var b [1]byte
	r.read(b[:])
	return b[0]
}

func (r *blobReader) readInt64() int64 {
	var b [8]byte
	r.read(b[:])
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (r *blobReader) readFloat64() float64 {
	return math.Float64frombits(uint64(r.readInt64()))
}

func (r *blobReader) readUvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *blobReader) readString() string {
	n := r.readUvarint()
	if r.err != nil {
		return ""
	}
	if uint64(r.off)+n > uint64(len(r.data)) {
		r.fail("short string")
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}
