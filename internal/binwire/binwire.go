// Package binwire is the layer under the binary frame that carries sample
// data over the HTTP API (media type MediaType): append helpers that
// write its primitives, and a Reader over untrusted frame bytes.
//
// Integers are uvarints or zigzag varints, fixed-width values are
// little-endian, strings are a uvarint length and the bytes, and a time
// is its Unix seconds (varint) and nanoseconds (uvarint), so every
// time.Time, the zero one included, round-trips. A list that may be nil
// starts with 0 for nil or its length plus one.
//
// The Reader latches its first error, so a decoder reads a whole
// structure and checks once. It bounds every count by the bytes left
// before anything is allocated, and its float reads refuse NaN and ±Inf,
// which a JSON answer could not carry afterwards.
package binwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// MediaType is the Content-Type of a binary frame, and what a client
// names in Accept to be answered with one.
const MediaType = "application/vnd.sensorsafe.frame"

// ErrNonFinite marks a NaN or infinite float, which a frame refuses both
// ways.
var ErrNonFinite = errors.New("binwire: non-finite float")

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat64 appends f's IEEE 754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendFinite appends f like AppendFloat64, or fails on NaN and ±Inf.
func AppendFinite(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("%w: %v", ErrNonFinite, f)
	}
	return AppendFloat64(b, f), nil
}

// AppendTime appends t as Unix seconds and nanoseconds.
func AppendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// AppendList appends a list that may be nil: its header, then each
// element through elem.
func AppendList[T any](b []byte, xs []T, elem func([]byte, T) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(b, 0), nil
	}
	b = binary.AppendUvarint(b, uint64(len(xs))+1)
	for _, x := range xs {
		var err error
		if b, err = elem(b, x); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Reader is a cursor over frame bytes. After the first failure every
// read returns a zero value and Err reports that failure.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader positioned at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// left is the number of bytes not read yet.
func (r *Reader) left() int { return len(r.data) - r.off }

// Fail latches err unless an earlier failure is latched already.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf("binwire: "+format+" at offset %d", append(args, r.off)...))
}

// End is Err, or an error when bytes are left after the last read.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.data) {
		r.failf("%d trailing bytes", r.left())
	}
	return r.err
}

// Bytes reads the following n bytes, a view of the frame, or nil after
// a failure.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.left() {
		r.failf("short read of %d bytes", n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Flag reads a presence byte: 1 is true, 0 false, anything else fails.
func (r *Reader) Flag() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.failf("bad flag byte")
	return false
}

// Int64 reads a fixed-width little-endian integer.
func (r *Reader) Int64() int64 {
	if b := r.Bytes(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Float64 reads a float written by AppendFloat64, whatever its value.
func (r *Reader) Float64() float64 {
	return math.Float64frombits(uint64(r.Int64()))
}

// Finite reads a float and fails on NaN and ±Inf.
func (r *Reader) Finite() float64 {
	f := r.Float64()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.Fail(fmt.Errorf("%w: %v at offset %d", ErrNonFinite, f, r.off-8))
		return 0
	}
	return f
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err == nil && n > uint64(r.left()) {
		r.failf("string of %d bytes overruns the frame", n)
	}
	return string(r.Bytes(int(n)))
}

// Time reads a time written by AppendTime, in UTC.
func (r *Reader) Time() time.Time {
	sec := r.Varint()
	nsec := r.Uvarint()
	if r.err == nil && nsec >= uint64(time.Second) {
		r.failf("nanoseconds %d out of range", nsec)
	}
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Count reads a count of elements that each take at least minSize
// bytes, and fails when the bytes left cannot hold that many.
func (r *Reader) Count(minSize int) int { return r.bound(r.Uvarint(), minSize) }

// bound returns n, or fails when the bytes left cannot hold n elements
// of minSize bytes each.
func (r *Reader) bound(n uint64, minSize int) int {
	if r.err == nil && n > uint64(r.left()/minSize) {
		r.failf("count %d exceeds the %d bytes left", n, r.left())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// List reads a list written by AppendList whose elements each take at
// least minSize bytes, decoding each through elem. A nil list, and any
// list after a failure, reads as nil.
func List[T any](r *Reader, minSize int, elem func(*T)) []T {
	h := r.Uvarint()
	if h == 0 {
		return nil
	}
	n := r.bound(h-1, minSize)
	if r.err != nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		elem(&out[i])
		if r.err != nil {
			return nil
		}
	}
	return out
}
