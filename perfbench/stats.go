package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it, and the value there: the sample at
// ascending index n-tailBeyond-1, which is the (n-tailBeyond)/n
// quantile. ok is false when there are too few samples for any such
// percentile.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return 100 * float64(n-tailBeyond) / float64(n), s[n-tailBeyond-1], true
}

// quartiles returns the three cut points dividing xs into four groups,
// by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4). It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return q, false
	}
	s := sortedCopy(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Clamp j to [1, n-1] before taking delta, as Python does.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// timeRange is a half-open stretch of time [start, end).
type timeRange struct{ start, end time.Duration }

// covered returns how much of [start, end) the given intervals cover,
// counting time where intervals overlap once.
func covered(start, end time.Duration, ivs []timeRange) time.Duration {
	clipped := make([]timeRange, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, start), min(iv.end, end)
		if s < e {
			clipped = append(clipped, timeRange{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var curS, curE time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// gaps turns successive write stamps into per-boundary durations:
// boundary i ran from stamp i-1 (or from start, for the first) to
// stamp i.
func gaps(start time.Time, stamps []time.Time) []time.Duration {
	out := make([]time.Duration, len(stamps))
	prev := start
	for i, s := range stamps {
		out[i] = s.Sub(prev)
		prev = s
	}
	return out
}

// ms and secs convert durations to the units the report uses.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
