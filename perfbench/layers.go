package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
)

// window brackets the measured window: it switches the tracer on and
// reads the runtime's counters at both ends.
type window struct {
	start time.Time
	m0    runtime.MemStats
	tr    *tracer
}

func startWindow(tr *tracer) *window {
	w := &window{tr: tr}
	runtime.ReadMemStats(&w.m0)
	if tr != nil {
		tr.on.Store(true)
	}
	w.start = time.Now()
	return w
}

// end closes the window and reports the runtime layer's metrics per
// wire request (requests counts every /rpc call the clients made).
func (w *window) end(r *report, requests int64) {
	if w.tr != nil {
		w.tr.on.Store(false)
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	req := float64(max(requests, 1))
	r.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-w.m0.PauseTotalNs)/1e6, "ms")
	r.set("runtime.gc_cycles_per_1k_requests", float64(m1.NumGC-w.m0.NumGC)*1000/req, "count")
	r.set("runtime.alloc_bytes_per_request", float64(m1.TotalAlloc-w.m0.TotalAlloc)/req, "B")
}

// liveHeap reports heap_mb: the live heap after forced collections. The
// second collection drops what sync.Pools kept through the first, such
// as the buffer of the last large JSON encode.
func liveHeap(r *report) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("heap_mb", float64(m.HeapAlloc)/(1<<20), "MB")
}

// performMetrics reports the perform metrics from a window's
// completions. perform_p50_ms, the median latency over all of them, is
// the end-to-end figure. The tail and the rates are medians over blocks
// of each block's p99 latency, completion rate and result rate; they are
// printed on every run and reported as metrics by traced runs only,
// under traced.* names like the traced run's median. A few performs in
// a hundred meet a vCPU the hypervisor has taken away for milliseconds,
// and how many do changes from one run to the next, so the tail and the
// rates follow the host there, and only the median follows the program.
func performMetrics(r *report, tl timeline, traced bool) {
	var all samples
	for _, c := range tl {
		all.add(float64(c.latency) / 1e6)
	}
	p99, rate, resultRate := tl.blocks()
	r.set("perform_p50_ms", all.quantile(0.5), "ms")
	if traced {
		r.set("traced.perform_p50_ms", all.quantile(0.5), "ms")
		r.set("traced.perform_p99_ms", median(p99), "ms")
		r.set("traced.gestures_per_s", median(rate), "1/s")
		r.set("traced.results_per_s", median(resultRate), "1/s")
	}
	r.note("perform: n=%d p50=%.4fms; whole-window p99=%.4fms with %d beyond; %d blocks of %d: p99 median %.4fms, rate median %.1f/s, result rate median %.1f/s",
		all.n(), all.quantile(0.5), all.quantile(0.99), all.tailSamples(0.99), len(p99), blockSize, median(p99), median(rate), median(resultRate))
}

// wireLayers reports the per-layer times the spans give: the client's,
// gateway's and backend handler's self time and the session layer's
// time per op. Layers a workload bypasses read 0.
func wireLayers(r *report, tr *tracer) {
	tr.link()
	med := func(s *samples) float64 { return s.quantile(0.5) }
	r.set("protocol.client_us", med(tr.selfTimes(layerClient, protocol.OpPerform)), "us")
	r.set("gateway.hop_us", med(tr.selfTimes(layerGateway, protocol.OpPerform)), "us")
	r.set("protocol.handler_us", med(tr.selfTimes(layerBackend, protocol.OpPerform)), "us")
	r.set("session.perform_us", med(tr.durations(layerRouter, protocol.OpPerform)), "us")
	r.set("session.resume_us", med(tr.durations(layerRouter, protocol.OpResume)), "us")
	r.set("session.append_us", med(tr.durations(layerRouter, protocol.OpAppend)), "us")
	if n := tr.rpcResponses.Load(); n > 0 {
		r.set("protocol.response_bytes", float64(tr.rpcBytes.Load())/float64(n), "B")
	} else {
		r.set("protocol.response_bytes", 0, "B")
	}
	r.note("spans: %d", len(tr.spans))
}

// corePass re-drives a captured perform script through Session.Perform
// on a fresh session of mgr, after replaying the workload's set-up
// requests there, and reports the kernel layer: time per gesture,
// results per gesture and the allocations of the whole pass.
func corePass(r *report, mgr *session.Manager, setup []protocol.Request, steps []step) error {
	const id = "perfbench-core"
	for _, req := range setup {
		req.V, req.Session = protocol.Version, id
		if resp := mgr.HandleRequest(req); !resp.OK {
			return fmt.Errorf("core pass: %s: %s", req.Op, resp.Error)
		}
	}
	defer mgr.Evict(id)
	s, ok := mgr.Get(id)
	if !ok {
		return fmt.Errorf("core pass: session vanished")
	}
	targets := make([]int, len(steps))
	for i, st := range steps {
		oid, ok := s.BoundObject(st.object)
		if !ok {
			return fmt.Errorf("core pass: no object %q", st.object)
		}
		targets[i] = oid
	}
	var times samples
	results := 0
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, st := range steps {
		g := st.g
		g.Target = targets[i]
		start := time.Now()
		res, err := s.Perform(g)
		times.add(float64(time.Since(start)) / 1e3)
		if err != nil {
			return fmt.Errorf("core pass: perform: %w", err)
		}
		results += len(res)
	}
	runtime.ReadMemStats(&m1)
	n := float64(max(len(steps), 1))
	r.set("core.perform_us", times.quantile(0.5), "us")
	r.set("core.results_per_gesture", float64(results)/n, "count")
	r.set("core.allocs_per_gesture", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	r.set("core.alloc_bytes_per_gesture", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	r.note("core pass: %d gestures re-driven", len(steps))
	return nil
}

// logCounters are the session-log layer's counters summed over a
// workload's stores and managers.
type logCounters struct {
	frames, bytes, compactions, logErrs, resumes, replayed, logged int64
}

func readLogCounters(stores []*sessionlog.Store, mgrs []*session.Manager) logCounters {
	var c logCounters
	for _, st := range stores {
		s := st.Stats()
		c.frames += s.AppendedFrames
		c.bytes += s.AppendedBytes
		c.compactions += s.Compactions
	}
	for _, m := range mgrs {
		s := m.Stats()
		c.logErrs += s.LogErrors
		c.resumes += s.Resumes
		c.replayed += s.ReplayedRequests
		c.logged += s.LoggedRequests
	}
	return c
}

// logLayers reports the session-log layer: the stores' and managers'
// counters over the window (before was read at its start), a load of
// every session log after the run, and log_bytes_per_request, the
// session directory's size over every request ever logged to it. A
// workload without durability passes no stores and reads 0.
func logLayers(r *report, dir string, stores []*sessionlog.Store, mgrs []*session.Manager, before logCounters, performs int64) error {
	after := readLogCounters(stores, mgrs)
	var loads samples
	for _, st := range stores {
		for _, id := range st.Sessions() {
			start := time.Now()
			if _, err := st.LoadSession(id); err != nil {
				return fmt.Errorf("loading session log %q: %w", id, err)
			}
			loads.add(float64(time.Since(start)) / 1e3)
		}
	}
	var dirBytes int64
	if dir != "" {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return err
			}
			dirBytes += info.Size()
		}
	}
	div := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	frames := after.frames - before.frames
	resumes := after.resumes - before.resumes
	r.set("log_bytes_per_request", div(dirBytes, after.logged), "B")
	r.set("sessionlog.bytes_per_request", div(after.bytes-before.bytes, frames), "B")
	r.set("sessionlog.compactions_per_1k_requests", 1000*div(after.compactions-before.compactions, frames), "count")
	r.set("sessionlog.load_us", loads.quantile(0.5), "us")
	r.set("sessionlog.log_errors", float64(after.logErrs), "count")
	r.set("session.resumes_per_1k_performs", 1000*div(resumes, performs), "count")
	r.set("session.replayed_per_resume", div(after.replayed-before.replayed, resumes), "count")
	r.note("session log: %d frames, %d compactions, %d resumes in the window; %d log errors; %d B on disk for %d logged requests; %d logs loaded",
		frames, after.compactions-before.compactions, resumes, after.logErrs, dirBytes, after.logged, loads.n())
	return nil
}
