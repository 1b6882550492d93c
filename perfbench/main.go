// Command perfbench is dbTouch's end-to-end benchmark: it assembles the
// servers cmd/dbtouch-serve and cmd/dbtouch-gateway would run, in this
// process, on loopback TCP, drives them with wire clients replaying a
// script generated from --seed, checks every answer against values
// computed apart from the program, and prints one JSON result line.
//
//	perfbench --workload touch|fleet|ingest --seed N --seconds S --trace 0|1
//	perfbench --smoke               # every workload once, short, all checks
//	perfbench --spread a.ndjson [b.ndjson]   # judge runs against the bounds
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// work is the run's scratch directory (session logs), removed at the
	// end; traces go to its parent.
	work string
}

// workloads maps names to runners.
var workloads = map[string]func(rc runConfig) (*report, error){
	"touch":  runTouch,
	"fleet":  runFleet,
	"ingest": runIngest,
}

// setupRepeats is how many set-ups a run times per workload: enough for
// about a second of set-up in all, so that setup_s, their median, does
// not rest on a few tens of milliseconds.
var setupRepeats = map[string]int{"touch": 5, "fleet": 50, "ingest": 25}

func main() {
	workload := flag.String("workload", "", "workload to run: touch, fleet or ingest")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs with timing wrappers and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "run every workload once for one second with every check")
	spreadMode := flag.Bool("spread", false, "judge result lines in the given files against BENCHMARK.json's bounds")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark description")
	workRoot := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for session logs and traces")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *spreadMode {
		os.Exit(spreadMain(spec, flag.Args()))
	}
	if *smoke {
		os.Exit(smokeMain(spec, *seed, *workRoot))
	}
	_, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (want touch, fleet or ingest)", *workload))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupRepeats[*workload]}
	res, err := execute(rc, spec, *workRoot)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs one workload in a fresh scratch directory and selects the
// metrics the mode prints.
func execute(rc runConfig, spec *benchSpec, workRoot string) (*result, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, rc.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	rc.work = work
	rep, err := workloads[rc.workload](rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	rep.print(rc)
	declared := spec.EndToEnd
	if rc.trace {
		declared = spec.PerLayer
	}
	metrics, err := selectMetrics(declared, rep.metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	attempted, failed := rep.totals()
	return &result{Correct: len(rep.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// report accumulates one run's accounting and measurements.
type report struct {
	ops     map[string]*opCount
	metrics map[string]metric
	// wrong lists answer-check failures (the first few are printed).
	wrong []string
	notes []string
}

type opCount struct{ attempted, failed int64 }

func newReport() *report {
	return &report{ops: map[string]*opCount{}, metrics: map[string]metric{}}
}

// op counts one attempted operation of kind, failed when err != nil.
func (r *report) op(kind string, err error) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		r.note("%s failed: %v", kind, err)
	}
}

// opN counts n attempted operations of kind, failed of them failing.
func (r *report) opN(kind string, n, failed int64) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.attempted += n
	c.failed += failed
}

// answerWrong records a wrong answer for an operation already counted
// as attempted: it fails that operation and the run's correctness.
func (r *report) answerWrong(kind string, err error) {
	r.ops[kind].failed++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %v", kind, err))
	}
}

// checkFailed records a failed whole-run check (not tied to one
// operation) as a wrong answer of a one-operation kind.
func (r *report) checkFailed(kind string, err error) {
	r.op(kind, nil)
	r.answerWrong(kind, err)
}

func (r *report) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) totals() (attempted, failed int64) {
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// print writes the run's accounting to standard output, before the
// result line: operations by kind, sample counts, notes, wrong answers.
func (r *report) print(rc runConfig) {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed=%d seconds=%d trace=%v go=%s gomaxprocs=%d\n",
		rc.workload, rc.seed, rc.seconds, rc.trace, runtime.Version(), runtime.GOMAXPROCS(0))
	for _, k := range kinds {
		fmt.Fprintf(&b, "# ops %-10s attempted=%d failed=%d\n", k, r.ops[k].attempted, r.ops[k].failed)
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, w := range r.wrong {
		fmt.Fprintf(&b, "# WRONG %s\n", w)
	}
	fmt.Print(b.String())
}

// setupTimer runs set-up rc.setups times, tearing down all but the last,
// and reports the median as setup_s.
func setupTimer[E interface{ close() }](r *report, rc runConfig, setup func(i int) (E, error)) (E, error) {
	var times samples
	var env E
	for i := 0; i < rc.setups; i++ {
		if i > 0 {
			// Drop the previous environment before building the next, so
			// set-ups never hold two copies of the data.
			env.close()
			var zero E
			env = zero
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		env, err = setup(i)
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		times.add(time.Since(start).Seconds())
	}
	r.set("setup_s", times.quantile(0.5), "s")
	r.note("setup_s: n=%d values=%v", times.n(), times.vals)
	return env, nil
}
