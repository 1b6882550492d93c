package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects one latency (or size) distribution. Values are kept
// whole so percentiles are exact, not bucketed.
type samples struct {
	vals   []float64
	sorted bool
}

func (s *samples) add(v float64) { s.vals = append(s.vals, v); s.sorted = false }

func (s *samples) n() int { return len(s.vals) }

func (s *samples) sort() []float64 {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals
}

// quantile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q of all samples at or below it. It returns 0 for
// an empty set, which callers report together with the sample count.
func (s *samples) quantile(q float64) float64 {
	v := s.sort()
	if len(v) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1]
}

// tailSamples is how many samples lie strictly above the q-quantile: a
// percentile is a tail only with at least ten samples beyond it.
func (s *samples) tailSamples(q float64) int {
	v := s.sort()
	p := s.quantile(q)
	i := sort.Search(len(v), func(i int) bool { return v[i] > p })
	return len(v) - i
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	if len(values) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(values))
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], nil
}

// spread is the interquartile distance of a metric's per-run values as a
// share of their median.
func spread(values []float64) (float64, error) {
	q1, q2, q3, err := quartiles(values)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// worseBy reports how much worse b is than a as a share of a, for a
// metric whose better direction is "lower" or "higher"; negative means b
// is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// completion is one successful perform: when it finished, counted from
// the window's start, how long it took and how many frames it returned.
type completion struct {
	at, latency time.Duration
	results     int
}

// timeline is a window's completions.
type timeline []completion

func (t *timeline) add(w0, start, end time.Time, results int) {
	*t = append(*t, completion{at: end.Sub(w0), latency: end.Sub(start), results: results})
}

// blockSize is how many consecutive completions a block holds: enough
// for a block's p99 to have ten samples beyond it.
const blockSize = 1000

// blocks splits the completions, in completion order, into blocks of
// blockSize, dropping a trailing partial block unless it is the only
// one, and returns each block's p99 latency in ms, completion rate and
// result rate per second. Medians over blocks keep a burst of host
// noise in part of a window from moving a run's figures.
func (t timeline) blocks() (p99, rate, resultRate []float64) {
	c := append(timeline(nil), t...)
	sort.Slice(c, func(i, j int) bool { return c[i].at < c[j].at })
	var from time.Duration
	for lo := 0; lo < len(c); lo += blockSize {
		hi := min(lo+blockSize, len(c))
		if hi-lo < blockSize && lo > 0 {
			break
		}
		var lat samples
		results := 0
		for _, x := range c[lo:hi] {
			lat.add(float64(x.latency) / 1e6)
			results += x.results
		}
		secs := (c[hi-1].at - from).Seconds()
		from = c[hi-1].at
		p99 = append(p99, lat.quantile(0.99))
		rate = append(rate, float64(hi-lo)/secs)
		resultRate = append(resultRate, float64(results)/secs)
	}
	return p99, rate, resultRate
}

// median is the middle of values (the mean of the middle two for an
// even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}
