package main

import (
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of a run's
// latencies. Failed operations rank after every success, whatever their
// own duration, so a failure always counts as slower than the slowest
// success. ok is false when fewer than minBeyond samples lie beyond the
// chosen rank.
func percentile(succeeded, failed []float64, q float64) (v float64, ok bool) {
	n := len(succeeded) + len(failed)
	// 1-based; the epsilon keeps 0.99×1000 from rounding up to 991.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), succeeded...)
	sort.Float64s(s)
	if rank <= len(s) {
		return s[rank-1], true
	}
	f := append([]float64(nil), failed...)
	sort.Float64s(f)
	return f[rank-len(s)-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a closed-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is parent's duration minus the part of it that children
// cover. Children may overlap each other (two tiers written at once) or
// reach outside the parent; each instant of the parent counts once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// metricName is the grammar every metric name obeys: a letter or digit,
// then letters, digits, '_', '.' and '-', at most 64 in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name obeys the metric-name grammar.
func validName(name string) bool { return metricName.MatchString(name) }
