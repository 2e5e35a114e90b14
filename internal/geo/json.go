package geo

import (
	"strconv"

	"sensorsafe/internal/jsonwire"
)

// One-pass JSON for the location values embedded in Fig. 5 segments and
// releases. The bytes are those encoding/json writes for the struct tags
// above; the decoders keep its semantics (see package jsonwire).

var pointFields = []string{"lat", "lon"}

// AppendJSON appends p as {"lat":…,"lon":…}.
func (p Point) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"lat":`...)
	b, err := jsonwire.AppendFloat(b, p.Lat)
	if err != nil {
		return b, err
	}
	b = append(b, `,"lon":`...)
	b, err = jsonwire.AppendFloat(b, p.Lon)
	return append(b, '}'), err
}

// DecodeJSON decodes a point into p; null leaves p as it was.
func (p *Point) DecodeJSON(r *jsonwire.Reader) error {
	if r.Null() {
		return nil
	}
	return r.Object(func(key []byte) error {
		switch jsonwire.Field(key, pointFields) {
		case 0:
			return r.FloatInto(&p.Lat)
		case 1:
			return r.FloatInto(&p.Lon)
		}
		return r.Skip()
	})
}

var abstractedFields = []string{"granularity", "point", "text"}

// AppendJSON appends a as {"granularity":…,"point":…,"text":…}, without
// point when it is nil and text when it is empty.
func (a AbstractedLocation) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"granularity":`...)
	b = strconv.AppendInt(b, int64(a.Granularity), 10)
	if a.Point != nil {
		b = append(b, `,"point":`...)
		var err error
		if b, err = a.Point.AppendJSON(b); err != nil {
			return b, err
		}
	}
	if a.Text != "" {
		b = append(b, `,"text":`...)
		b = jsonwire.AppendString(b, a.Text)
	}
	return append(b, '}'), nil
}

// DecodeJSON decodes an abstracted location into a; null leaves a as it
// was, and a null point sets Point to nil.
func (a *AbstractedLocation) DecodeJSON(r *jsonwire.Reader) error {
	if r.Null() {
		return nil
	}
	return r.Object(func(key []byte) error {
		switch jsonwire.Field(key, abstractedFields) {
		case 0:
			return r.IntInto((*int)(&a.Granularity))
		case 1:
			if r.Null() {
				a.Point = nil
				return nil
			}
			if a.Point == nil {
				a.Point = new(Point)
			}
			return a.Point.DecodeJSON(r)
		case 2:
			return r.StringInto(&a.Text)
		}
		return r.Skip()
	})
}
