package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.505, 51},
	} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.tailSamples(0.99); got != 1 {
		t.Errorf("tailSamples(0.99) = %d, want 1", got)
	}
	if got := s.tailSamples(0.5); got != 50 {
		t.Errorf("tailSamples(0.5) = %d, want 50", got)
	}
	var empty samples
	if empty.quantile(0.5) != 0 || empty.tailSamples(0.99) != 0 {
		t.Error("an empty distribution should read 0 with no tail")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9.0}, [3]float64{1.25, 3.5, 9.0}},
		{[]float64{10, 20}, [3]float64{7.5, 15.0, 22.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 8}, [3]float64{2.0, 4.0, 8.0}},
	} {
		q1, q2, q3, err := quartiles(c.data)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestSpreadAndWorseBy(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worseBy lower = %v, want 0.1", got)
	}
	if got := worseBy(100, 110, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worseBy higher = %v, want -0.1", got)
	}
}

func TestTimelineBlocks(t *testing.T) {
	var tl timeline
	w0 := time.Unix(0, 0)
	// 2500 completions, one every millisecond, each taking 1 ms except
	// every 50th, which takes 9 ms; every completion returns 2 frames.
	for i := 1; i <= 2500; i++ {
		d := time.Millisecond
		if i%50 == 0 {
			d = 9 * time.Millisecond
		}
		end := w0.Add(time.Duration(i) * time.Millisecond)
		tl.add(w0, end.Add(-d), end, 2)
	}
	p99, rate, results := tl.blocks()
	if len(p99) != 2 {
		t.Fatalf("%d blocks, want 2 (the partial third is dropped)", len(p99))
	}
	for i := range p99 {
		if p99[i] != 9 || math.Abs(rate[i]-1000) > 1e-9 || math.Abs(results[i]-2000) > 1e-9 {
			t.Errorf("block %d: p99=%v rate=%v results=%v", i, p99[i], rate[i], results[i])
		}
	}
	short := tl[:10]
	if p99, _, _ := short.blocks(); len(p99) != 1 {
		t.Errorf("a short window should make one block, got %d", len(p99))
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}
