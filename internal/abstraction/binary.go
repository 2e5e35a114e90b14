package abstraction

import (
	"encoding/binary"

	"sensorsafe/internal/binwire"
	"sensorsafe/internal/geo"
	"sensorsafe/internal/timeutil"
	"sensorsafe/internal/wavesegment"
)

// AppendBinary appends the release as a binary frame carries it:
//
//	contributor string
//	start, end time
//	timeGranularity varint
//	location granularity varint, point flag [lat, lon float64], text string
//	segment flag [blob, as wavesegment.AppendBinary writes it]
//	contexts list of {context string, start, end time}
//
// with the primitives of package binwire. A NaN or infinite coordinate or
// sample fails, as it does in JSON.
func (r *Release) AppendBinary(b []byte) ([]byte, error) {
	b = binwire.AppendString(b, r.Contributor)
	b = binwire.AppendTime(b, r.Start)
	b = binwire.AppendTime(b, r.End)
	b = binary.AppendVarint(b, int64(r.TimeGranularity))
	b = binary.AppendVarint(b, int64(r.Location.Granularity))
	var err error
	if p := r.Location.Point; p == nil {
		b = append(b, 0)
	} else {
		if b, err = binwire.AppendFinite(append(b, 1), p.Lat); err != nil {
			return b, err
		}
		if b, err = binwire.AppendFinite(b, p.Lon); err != nil {
			return b, err
		}
	}
	b = binwire.AppendString(b, r.Location.Text)
	if r.Segment == nil {
		b = append(b, 0)
	} else {
		if err := r.Segment.CheckFinite(); err != nil {
			return b, err
		}
		if b, err = r.Segment.AppendBinary(append(b, 1)); err != nil {
			return b, err
		}
	}
	return binwire.AppendList(b, r.Contexts, func(b []byte, a wavesegment.Annotation) ([]byte, error) {
		b = binwire.AppendString(b, a.Context)
		b = binwire.AppendTime(b, a.Start)
		return binwire.AppendTime(b, a.End), nil
	})
}

// contextMinBytes is the smallest encoded context: an empty label and
// two one-byte-each time parts.
const contextMinBytes = 1 + 2 + 2

// DecodeBinary decodes the release that comes next in rd into r,
// replacing what r held. A failure is latched in rd.
func (r *Release) DecodeBinary(rd *binwire.Reader) {
	*r = Release{Contributor: rd.Str()}
	r.Start = rd.Time()
	r.End = rd.Time()
	r.TimeGranularity = timeutil.Granularity(rd.Varint())
	r.Location.Granularity = geo.LocationGranularity(rd.Varint())
	if rd.Flag() {
		p := &geo.Point{Lat: rd.Finite()}
		p.Lon = rd.Finite()
		r.Location.Point = p
	}
	r.Location.Text = rd.Str()
	if rd.Flag() {
		r.Segment = new(wavesegment.Segment)
		r.Segment.DecodeBinary(rd)
	}
	r.Contexts = binwire.List(rd, contextMinBytes, func(a *wavesegment.Annotation) {
		a.Context = rd.Str()
		a.Start = rd.Time()
		a.End = rd.Time()
	})
}

// AppendReleases appends a list of releases, nil ones included, as an
// /api/query answer and a stream event carry it.
func AppendReleases(b []byte, rels []*Release) ([]byte, error) {
	return binwire.AppendList(b, rels, func(b []byte, rel *Release) ([]byte, error) {
		if rel == nil {
			return append(b, 0), nil
		}
		return rel.AppendBinary(append(b, 1))
	})
}

// DecodeReleases reads a list AppendReleases wrote.
func DecodeReleases(rd *binwire.Reader) []*Release {
	return binwire.List(rd, 1, func(rel **Release) {
		if rd.Flag() {
			*rel = new(Release)
			(*rel).DecodeBinary(rd)
		}
	})
}
