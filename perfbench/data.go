package main

import (
	"math/rand/v2"
	"time"

	"dbtouch/internal/gesture"
)

// The benchmark's data is a pure function of (seed, row): the program
// receives it materialized, and the answer checks recompute any value
// from the function itself, so the checks hold their own copy of the
// data without storing one.

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dataset is one column's values: uniform on [0, 1000).
type dataset struct{ seed uint64 }

func (d dataset) at(row int) float64 {
	return float64(mix(d.seed*0x100000001b3+uint64(row))>>11) * (1000.0 / (1 << 53))
}

// column materializes rows [0, n).
func (d dataset) column(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.at(i)
	}
	return out
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// step is one scripted perform: a gesture on a named object.
type step struct {
	object string
	g      gesture.Gesture
}

// fig4aSpeeds are Figure 4(a)'s slide completion times.
var fig4aSpeeds = []time.Duration{
	500 * time.Millisecond, 1000 * time.Millisecond, 1500 * time.Millisecond, 2000 * time.Millisecond,
	2500 * time.Millisecond, 3000 * time.Millisecond, 3500 * time.Millisecond, 4000 * time.Millisecond,
}

// slide is a full slide top to bottom (down) or bottom to top.
func slide(d time.Duration, down bool) gesture.Gesture {
	if down {
		return gesture.NewSlide(0, 0, 1, d)
	}
	return gesture.NewSlide(0, 1, 0, d)
}

// touchScript is one round of the single-user explorer. Its make-up is
// fixed, so every seed does the same work: full slides over the summary
// object at each Figure 4(a) speed in both directions (16), over the
// running aggregate at each speed (8), WHERE slides at 1 s and 3 s (2),
// a tap on each object and one more on the summary object (4), and two
// zoom-in, 2 s slide, zoom-out triples on the summary object (6).
// Directions alternate, so the seed picks only the order and the tap
// positions. Zoom factors undo exactly (1.25 * 0.8 = 1), so objects are
// back at their placed size at every round end.
func touchScript(seed uint64) []step {
	r := newRand(seed, 1)
	var groups [][]step
	for i, d := range fig4aSpeeds {
		groups = append(groups,
			[]step{{objSummary, slide(d, true)}},
			[]step{{objSummary, slide(d, false)}},
			[]step{{objRunning, slide(d, i%2 == 0)}})
	}
	for i, d := range []time.Duration{time.Second, 3 * time.Second} {
		groups = append(groups, []step{{objWhere, slide(d, i == 0)}})
	}
	for _, obj := range []string{objSummary, objSummary, objRunning, objWhere} {
		groups = append(groups, []step{{obj, gesture.NewTap(0, r.Float64())}})
	}
	for i := 0; i < 2; i++ {
		groups = append(groups, []step{
			{objSummary, gesture.NewZoom(0, 1.25)},
			{objSummary, slide(2*time.Second, i == 0)},
			{objSummary, gesture.NewZoom(0, 0.8)},
		})
	}
	r.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var out []step
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// partialSlide is the i-th of a fixed set of short slides: it sweeps
// 5-30% of the object in 0.2-0.6 s, both set by i, down for even i and
// up for odd i. Only where it starts is drawn from r, so every seed
// does the same work.
func partialSlide(r *rand.Rand, i int) gesture.Gesture {
	span := 0.05 + 0.05*float64(i%6)
	d := time.Duration(200+100*(i%5)) * time.Millisecond
	from := r.Float64() * (1 - span)
	to := from + span
	if i%2 == 1 {
		from, to = to, from
	}
	return gesture.NewSlide(0, from, to, d)
}

// sessionScript is the gesture list one fleet session cycles through:
// 26 partial slides and 6 taps in an order drawn from the seed. Every
// session's list is made of the same gestures, so which sessions the
// Zipf draw makes popular does not change the work.
func sessionScript(seed uint64, sess int) []gesture.Gesture {
	r := newRand(seed, 1000+uint64(sess))
	out := make([]gesture.Gesture, 0, fleetScript)
	for i := 0; i < fleetScript-6; i++ {
		out = append(out, partialSlide(r, i))
	}
	for len(out) < fleetScript {
		out = append(out, gesture.NewTap(0, r.Float64()))
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ingestScript is one round of the live-table explorer: full slides at
// 0.5, 1, 1.5 and 2 s in both directions (8), six partial slides and two
// taps. The seed picks the order and where the partial slides and taps
// land.
func ingestScript(seed uint64) []gesture.Gesture {
	r := newRand(seed, 3)
	var out []gesture.Gesture
	for _, d := range fig4aSpeeds[:4] {
		out = append(out, slide(d, true), slide(d, false))
	}
	for i := 0; i < 6; i++ {
		out = append(out, partialSlide(r, i))
	}
	out = append(out, gesture.NewTap(0, r.Float64()), gesture.NewTap(0, r.Float64()))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
