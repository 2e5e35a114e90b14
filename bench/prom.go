package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of the Prometheus text exposition format.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promSet is one scrape of /metrics.
type promSet []promSample

// parseProm reads the text format the repo's obs registry writes: comment
// lines, then `name{label="value",...} number` or `name number`.
func parseProm(data []byte) promSet {
	var out promSet
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{Name: line[:sp], Value: v}
		if i := strings.IndexByte(line, '{'); i >= 0 && i < sp {
			s.Name = line[:i]
			s.Labels = parseLabels(line[i+1 : strings.LastIndexByte(line[:sp], '}')])
		}
		out = append(out, s)
	}
	return out
}

func parseLabels(s string) map[string]string {
	labels := make(map[string]string)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			break
		}
		key := strings.TrimLeft(s[:eq], ", ")
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			val.WriteByte(rest[i])
		}
		labels[key] = val.String()
		if i >= len(rest) {
			break
		}
		s = rest[i+1:]
	}
	return labels
}

// sum adds every sample of name whose labels include all of match
// (given as alternating key, value).
func (p promSet) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, s := range p {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.Labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.Value
	}
	return total
}

// promDelta answers questions about what happened between two scrapes.
type promDelta struct{ before, after promSet }

func (d promDelta) sum(name string, match ...string) float64 {
	return d.after.sum(name, match...) - d.before.sum(name, match...)
}

// mean is the average observation of histogram name over the interval, or
// 0 when nothing was observed.
func (d promDelta) mean(name string, match ...string) float64 {
	n := d.sum(name+"_count", match...)
	if n <= 0 {
		return 0
	}
	return d.sum(name+"_sum", match...) / n
}

// quantile estimates the q-quantile of histogram name over the interval by
// linear interpolation inside the bucket, as Prometheus does. The answer
// is only as fine as the bucket bounds.
func (d promDelta) quantile(q float64, name string, match ...string) float64 {
	type bucket struct{ le, n float64 }
	byLE := make(map[float64]float64)
	add := func(set promSet, sign float64) {
	next:
		for _, s := range set {
			if s.Name != name+"_bucket" {
				continue
			}
			for i := 0; i+1 < len(match); i += 2 {
				if s.Labels[match[i]] != match[i+1] {
					continue next
				}
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue // "+Inf" parses; anything else malformed is skipped
			}
			byLE[le] += sign * s.Value
		}
	}
	add(d.after, 1)
	add(d.before, -1)
	var buckets []bucket
	for le, n := range byLE {
		buckets = append(buckets, bucket{le, n})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].n <= 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].n
	prevLE, prevN := 0.0, 0.0
	for _, b := range buckets {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.n == prevN {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevN)/(b.n-prevN)
		}
		prevLE, prevN = b.le, b.n
	}
	return prevLE
}
