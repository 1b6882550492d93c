package main

import (
	"regexp"
	"strings"
	"testing"
)

func bound(v float64) *float64 { return &v }

func runs(name string, failed int64, vals ...float64) []result {
	var out []result
	for _, v := range vals {
		out = append(out, result{Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{name: {Value: v, Unit: "ms"}}})
	}
	return out
}

func TestJudgeBounds(t *testing.T) {
	spec := []metricSpec{{Name: "lat", Unit: "ms", Better: "lower", Bound: bound(0.1)}}
	steady := runs("lat", 0, 10, 10.1, 9.9, 10.05, 9.95)
	v, err := judge(spec, steady, nil)
	if err != nil || len(v) != 1 || !v[0].OK {
		t.Fatalf("steady runs: %+v, %v", v, err)
	}
	noisy := runs("lat", 0, 5, 10, 15, 20, 8)
	if v, err := judge(spec, noisy, nil); err != nil || v[0].OK {
		t.Errorf("a spread above the bound should fail: %+v, %v", v, err)
	}
	slower := runs("lat", 0, 11.5, 11.6, 11.4, 11.55, 11.45)
	if v, err := judge(spec, steady, slower); err != nil || v[0].OK {
		t.Errorf("a second median 15%% worse should fail a 10%% bound: %+v, %v", v, err)
	}
	faster := runs("lat", 0, 8, 8.1, 7.9, 8.05, 7.95)
	if v, err := judge(spec, steady, faster); err != nil || !v[0].OK {
		t.Errorf("a better second median should pass: %+v, %v", v, err)
	}
	if _, err := judge(spec, steady, runs("lat", 1, 10, 10, 10)); err == nil {
		t.Error("a differing failed share should fail")
	}
}

func TestJudgeExemptsSetupSpread(t *testing.T) {
	spec := []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: bound(0.1)}}
	v, err := judge(spec, runs("setup_s", 0, 1, 2, 3, 4), nil)
	if err != nil || !v[0].OK {
		t.Errorf("setup_s spread is not bounded: %+v, %v", v, err)
	}
}

func TestSelectMetrics(t *testing.T) {
	declared := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	measured := map[string]metric{"a": {1, "ms"}, "b": {2, "count"}, "extra": {3, "B"}}
	got, err := selectMetrics(declared, measured)
	if err != nil || len(got) != 2 {
		t.Fatalf("selectMetrics = %v, %v", got, err)
	}
	delete(measured, "b")
	if _, err := selectMetrics(declared, measured); err == nil {
		t.Error("a declared metric that was not measured should fail")
	}
	measured["b"] = metric{2, "ms"}
	if _, err := selectMetrics(declared, measured); err == nil {
		t.Error("a unit mismatch should fail")
	}
}

func TestReadResultsSkipsAccounting(t *testing.T) {
	in := "# ops perform attempted=3\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"x\":{\"value\":1,\"unit\":\"s\"}}}\nnoise\n"
	got, err := readResults(strings.NewReader(in))
	if err != nil || len(got) != 1 || got[0].Attempted != 3 {
		t.Fatalf("readResults = %+v, %v", got, err)
	}
}

// TestBenchmarkJSON checks the benchmark description against the rules
// its consumers apply: bounds, names, units, and setup_s with the
// largest bound.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var setup, largest float64
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q invalid or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unit.MatchString(m.Unit) {
				t.Errorf("metric %q: unit %q invalid", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v should be the largest (%v)", setup, largest)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
}
