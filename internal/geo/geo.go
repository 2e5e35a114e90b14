// Package geo provides the geographic primitives SensorSafe privacy rules
// depend on: points, rectangular and polygonal regions, labeled places, a
// deterministic synthetic reverse-geocoder standing in for the paper's use
// of Google Maps, and the Table 1(b) location-abstraction ladder
// (coordinates → street address → zipcode → city → state → country →
// not shared).
package geo

import (
	"fmt"
	"maps"
	"math"
	"strings"
)

// Point is a WGS84 coordinate pair in degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Valid reports whether the point is on the globe.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

func (p Point) String() string { return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon) }

// EarthRadiusMeters is the mean earth radius used by Distance.
const EarthRadiusMeters = 6371000.0

// Distance returns the haversine great-circle distance in meters.
func Distance(a, b Point) float64 {
	toRad := func(d float64) float64 { return d * math.Pi / 180 }
	dLat := toRad(b.Lat - a.Lat)
	dLon := toRad(b.Lon - a.Lon)
	la1, la2 := toRad(a.Lat), toRad(b.Lat)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Rect is an axis-aligned bounding box. Min/Max are inclusive.
type Rect struct {
	MinLat float64 `json:"minLat"`
	MinLon float64 `json:"minLon"`
	MaxLat float64 `json:"maxLat"`
	MaxLon float64 `json:"maxLon"`
}

// NewRect normalizes corner ordering and validates bounds.
func NewRect(a, b Point) (Rect, error) {
	if !a.Valid() || !b.Valid() {
		return Rect{}, fmt.Errorf("geo: invalid corner %v or %v", a, b)
	}
	r := Rect{
		MinLat: math.Min(a.Lat, b.Lat), MaxLat: math.Max(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon), MaxLon: math.Max(a.Lon, b.Lon),
	}
	return r, nil
}

// Valid reports whether the rect is ordered and on the globe.
func (r Rect) Valid() bool {
	return r.MinLat <= r.MaxLat && r.MinLon <= r.MaxLon &&
		Point{Lat: r.MinLat, Lon: r.MinLon}.Valid() && Point{Lat: r.MaxLat, Lon: r.MaxLon}.Valid()
}

// IsZero reports whether the rect is the zero value.
func (r Rect) IsZero() bool { return r == Rect{} }

// Contains reports whether p lies inside the rect (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat && p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Intersects reports whether the two rects share any area or edge.
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && o.MinLat <= r.MaxLat &&
		r.MinLon <= o.MaxLon && o.MinLon <= r.MaxLon
}

// Center returns the rect's midpoint.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// Expand grows the rect by deg degrees on all sides, clamped to the globe.
func (r Rect) Expand(deg float64) Rect {
	return Rect{
		MinLat: math.Max(-90, r.MinLat-deg), MaxLat: math.Min(90, r.MaxLat+deg),
		MinLon: math.Max(-180, r.MinLon-deg), MaxLon: math.Min(180, r.MaxLon+deg),
	}
}

// Polygon is a simple (non-self-intersecting) polygon; the ring is implicitly
// closed. Rules drawn on the paper's map UI arrive as polygons or rects.
type Polygon []Point

// Valid reports whether the polygon has at least three valid vertices.
func (pg Polygon) Valid() bool {
	if len(pg) < 3 {
		return false
	}
	for _, p := range pg {
		if !p.Valid() {
			return false
		}
	}
	return true
}

// Contains runs the even-odd ray-casting test. Points exactly on an edge may
// report either side; privacy rules should not rely on edge instants.
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	inside := false
	j := len(pg) - 1
	for i := 0; i < len(pg); i++ {
		pi, pj := pg[i], pg[j]
		intersects := (pi.Lat > p.Lat) != (pj.Lat > p.Lat) &&
			p.Lon < (pj.Lon-pi.Lon)*(p.Lat-pi.Lat)/(pj.Lat-pi.Lat)+pi.Lon
		if intersects {
			inside = !inside
		}
		j = i
	}
	return inside
}

// Bounds returns the polygon's bounding box.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{MinLat: pg[0].Lat, MaxLat: pg[0].Lat, MinLon: pg[0].Lon, MaxLon: pg[0].Lon}
	for _, p := range pg[1:] {
		r.MinLat = math.Min(r.MinLat, p.Lat)
		r.MaxLat = math.Max(r.MaxLat, p.Lat)
		r.MinLon = math.Min(r.MinLon, p.Lon)
		r.MaxLon = math.Max(r.MaxLon, p.Lon)
	}
	return r
}

// Region is a named area a rule can reference, either by a pre-defined label
// ("home", "UCLA", "work") or by raw coordinates drawn on a map. Exactly one
// of Rect or Polygon should be set; Rect wins if both are.
type Region struct {
	Label   string  `json:"label,omitempty"`
	Rect    Rect    `json:"rect,omitempty"`
	Polygon Polygon `json:"polygon,omitempty"`
}

// Contains reports whether p lies inside the region's geometry. A region
// with no geometry contains nothing.
func (rg Region) Contains(p Point) bool {
	if !rg.Rect.IsZero() {
		return rg.Rect.Contains(p)
	}
	if len(rg.Polygon) >= 3 {
		return rg.Polygon.Contains(p)
	}
	return false
}

// HasGeometry reports whether the region carries usable geometry.
func (rg Region) HasGeometry() bool {
	return (!rg.Rect.IsZero() && rg.Rect.Valid()) || rg.Polygon.Valid()
}

// Bounds returns the region's bounding box.
func (rg Region) Bounds() Rect {
	if !rg.Rect.IsZero() {
		return rg.Rect
	}
	return rg.Polygon.Bounds()
}

// Gazetteer is a contributor's dictionary of labeled places, letting rules
// say "at home" or "at UCLA" instead of drawing coordinates each time.
type Gazetteer struct {
	regions map[string]Region
}

// NewGazetteer returns an empty place dictionary.
func NewGazetteer() *Gazetteer { return &Gazetteer{regions: make(map[string]Region)} }

// Define registers (or replaces) a labeled region. Labels are
// case-insensitive, matching the paper's informal use ("UCLA", "work").
func (g *Gazetteer) Define(label string, region Region) error {
	key := normalizeLabel(label)
	if key == "" {
		return fmt.Errorf("geo: empty region label")
	}
	if !region.HasGeometry() {
		return fmt.Errorf("geo: region %q has no geometry", label)
	}
	region.Label = label
	g.regions[key] = region
	return nil
}

// Lookup returns the region for a label.
func (g *Gazetteer) Lookup(label string) (Region, bool) {
	r, ok := g.regions[normalizeLabel(label)]
	return r, ok
}

// Remove deletes a labeled region; it reports whether the label existed.
func (g *Gazetteer) Remove(label string) bool {
	key := normalizeLabel(label)
	_, ok := g.regions[key]
	delete(g.regions, key)
	return ok
}

// LabelsAt returns every defined label whose region contains p.
func (g *Gazetteer) LabelsAt(p Point) []string {
	var out []string
	for _, rg := range g.regions {
		if rg.Contains(p) {
			out = append(out, rg.Label)
		}
	}
	return out
}

// Labels returns all defined labels (order unspecified).
func (g *Gazetteer) Labels() []string {
	out := make([]string, 0, len(g.regions))
	for _, rg := range g.regions {
		out = append(out, rg.Label)
	}
	return out
}

// Len returns the number of defined regions.
func (g *Gazetteer) Len() int { return len(g.regions) }

// Clone returns a copy that Define and Remove on either side leave the
// other unchanged.
func (g *Gazetteer) Clone() *Gazetteer { return &Gazetteer{regions: maps.Clone(g.regions)} }

func normalizeLabel(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
