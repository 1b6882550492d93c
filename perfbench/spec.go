package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// lists it must print and the bounds its spread check applies.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// selectMetrics picks the declared metrics out of everything a run
// measured. A declared metric the run did not measure, or measured under
// another unit, is a bug in the benchmark and fails the run rather than
// printing a result with a hole in it.
func selectMetrics(declared []metricSpec, measured map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := measured[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared but was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %q measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

// readResults reads the result lines of several runs: every line that
// parses as a result object counts, anything else is skipped.
func readResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// verdict is the spread check's finding for one metric.
type verdict struct {
	Name   string
	Median float64
	Spread float64
	// Drift is how much worse the second set's median is than the
	// first's, as a share (NaN with one set).
	Drift float64
	Bound float64
	OK    bool
}

// judge applies the benchmark's own acceptance rule to sets of runs of
// one workload: every end-to-end metric but setup_s must spread (IQR
// over median) within its bound, every metric's median in the second
// set must not be worse than the first set's by more than its bound, and
// the failed share must be identical across all runs.
func judge(spec []metricSpec, first, second []result) ([]verdict, error) {
	if len(first) < 2 {
		return nil, fmt.Errorf("need at least 2 runs, got %d", len(first))
	}
	shares := map[float64]bool{}
	for _, set := range [][]result{first, second} {
		for _, r := range set {
			if r.Attempted < 1 {
				return nil, fmt.Errorf("a run attempted no operations")
			}
			shares[float64(r.Failed)/float64(r.Attempted)] = true
		}
	}
	if len(shares) > 1 {
		return nil, fmt.Errorf("failed share differs between runs: %v", keys(shares))
	}
	var out []verdict
	for _, m := range spec {
		if m.Bound == nil {
			continue
		}
		v := verdict{Name: m.Name, Bound: *m.Bound, OK: true, Drift: math.NaN()}
		a := values(first, m.Name)
		if len(a) != len(first) {
			return nil, fmt.Errorf("metric %q missing from some runs", m.Name)
		}
		_, med, _, err := quartiles(a)
		if err != nil {
			return nil, err
		}
		v.Median = med
		if v.Spread, err = spread(a); err != nil {
			return nil, err
		}
		if m.Name != "setup_s" && v.Spread > v.Bound {
			v.OK = false
		}
		if len(second) >= 2 {
			b := values(second, m.Name)
			_, med2, _, err := quartiles(b)
			if err != nil {
				return nil, err
			}
			v.Drift = worseBy(med, med2, m.Better)
			if v.Drift > v.Bound {
				v.OK = false
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func keys(m map[float64]bool) []float64 {
	out := make([]float64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}
