package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"dbtouch"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
)

// The touch workload is the paper's single-user setting: one explorer
// on one backend with no durability, a closed-loop /rpc client plus a
// binary /stream reader on the same session, over a paper-scale column.

const (
	// touchRows is paper scale: base plus sample levels take about
	// 160 MB, more than a server's last-level cache.
	touchRows = 10_000_000
	// whereRows sizes the table the WHERE object covers. A filtered
	// slide reads every covered base row: over 10^6 rows a full slide
	// takes about 50 ms here, over 10^7 rows 1-2 s, which would leave a
	// 10 s window with a handful of gestures.
	whereRows  = 1_000_000
	summaryK   = 10
	objSummary = "summary"
	objRunning = "running"
	objWhere   = "where"
	explorer   = "explorer"
	// maxCaptured bounds the perform script the core pass re-drives.
	maxCaptured = 1000
)

func k(v int) *int { return &v }

// touchSetup places the explorer's objects: a summary column, a running
// aggregate column and a whole table, w, with a ~50%-selective WHERE.
func touchSetup() []protocol.Request {
	return []protocol.Request{
		{Op: protocol.OpOpen},
		{Op: protocol.OpCreate, Object: objSummary, Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 1, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: objSummary, Actions: &protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: k(summaryK)}},
		{Op: protocol.OpCreate, Object: objRunning, Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 5, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: objRunning, Actions: &protocol.ActionsSpec{Mode: "aggregate", Agg: "avg"}},
		{Op: protocol.OpCreate, Object: objWhere, Create: &protocol.CreateSpec{Table: "w", X: 9, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: objWhere, Actions: &protocol.ActionsSpec{Mode: "aggregate", Agg: "avg",
			Where: []protocol.FilterSpec{{Column: "v", Op: ">", Value: 500.0}}}},
	}
}

// doSetup sends set-up requests for one session and returns the object
// ids the creates reported.
func doSetup(cl *protocol.Client, sess string, reqs []protocol.Request) (map[string]int, error) {
	ids := map[string]int{}
	for _, req := range reqs {
		req.Session = sess
		resp, err := cl.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", req.Op, req.Object, err)
		}
		if req.Op == protocol.OpCreate {
			ids[req.Object] = resp.ObjectID
		}
	}
	return ids, nil
}

type touchEnv struct {
	be      *backend
	cl      *protocol.Client
	scl     *protocol.Client
	ids     map[string]int
	matcher *streamMatcher
	cancel  context.CancelFunc
	// streamDone delivers the stream reader's exit.
	streamDone chan struct{}
}

func setupTouch(rc runConfig, tr *tracer) (*touchEnv, error) {
	data := dataset{rc.seed}.column(touchRows)
	be, err := startBackend(backendConfig{
		load: func(db *dbtouch.DB) error {
			if err := db.NewTable("t").Float("v", data).Create(); err != nil {
				return err
			}
			return db.NewTable("w").Float("v", dataset{rc.seed + 1}.column(whereRows)).Create()
		},
		tr: tr,
	})
	if err != nil {
		return nil, err
	}
	env := &touchEnv{be: be, cl: newClient(be.url, tr), scl: newClient(be.url, tr), matcher: newStreamMatcher()}
	if env.ids, err = doSetup(env.cl, explorer, touchSetup()); err != nil {
		env.close()
		return nil, err
	}
	// One slide per object computes the lazily built span statistics,
	// so the window measures a warm server.
	for _, obj := range []string{objSummary, objRunning, objWhere} {
		if _, err := env.cl.Perform(explorer, obj, gesture.NewSlide(0, 0, 1, time.Second)); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	fs, err := env.scl.OpenStream(ctx, explorer, 1<<16, protocol.BinaryContentType)
	if err != nil {
		cancel()
		env.close()
		return nil, err
	}
	env.cancel = cancel
	env.streamDone = make(chan struct{})
	go func() {
		defer close(env.streamDone)
		defer fs.Close()
		for {
			f, err := fs.Next()
			if err != nil {
				return
			}
			env.matcher.deliver(f, time.Now())
		}
	}()
	return env, nil
}

func (e *touchEnv) close() {
	if e.cancel != nil {
		e.cancel()
		<-e.streamDone
	}
	e.cl.HTTPClient.CloseIdleConnections()
	e.scl.HTTPClient.CloseIdleConnections()
	e.be.close()
}

func runTouch(rc runConfig) (*report, error) {
	r := newReport()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	env, err := setupTimer(r, rc, func(int) (*touchEnv, error) { return setupTouch(rc, tr) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	truth := summaryTruth{rows: touchRows, k: summaryK, at: dataset{rc.seed}.at, maxAbs: 1000}
	script := touchScript(rc.seed)

	var tl timeline
	var performs int64
	var captured []step
	w := startWindow(tr)
	deadline := w.start.Add(time.Duration(rc.seconds) * time.Second)
	for time.Now().Before(deadline) {
		for _, st := range script {
			g := st.g
			start := time.Now()
			resp, err := env.cl.Do(protocol.Request{Op: protocol.OpPerform, Session: explorer, Object: st.object, Gesture: &g})
			end := time.Now()
			if tr != nil {
				tr.add(layerClient, explorer, protocol.OpPerform, start, end)
			}
			performs++
			r.op("perform", err)
			if err != nil {
				continue
			}
			tl.add(w.start, start, end, len(resp.Results))
			env.matcher.expect(start, resp.Results, true)
			if err := truth.checkFrames(env.ids[objSummary], resp.Results); err != nil {
				r.answerWrong("perform", err)
			}
			if len(captured) < maxCaptured {
				captured = append(captured, st)
			}
		}
	}
	w.end(r, performs)
	env.matcher.drain(10 * time.Second)
	r.opN("stream", env.matcher.matched+env.matcher.failed, env.matcher.failed)

	performMetrics(r, tl, rc.trace)
	liveHeap(r)
	fig4aProbe(r, env.cl, truth)
	if !rc.trace {
		return r, nil
	}
	r.set("stream_p50_ms", env.matcher.latency.quantile(0.5), "ms")
	r.note("stream: n=%d p50=%.4fms", env.matcher.latency.n(), env.matcher.latency.quantile(0.5))
	r.set("protocol.stream_bytes_per_result", float64(tr.streamBytes.Load())/float64(max(env.matcher.frames, 1)), "B")
	wireLayers(r, tr)
	noGateway(r)
	noAppends(r)
	if err := logLayers(r, "", nil, nil, logCounters{}, performs); err != nil {
		return nil, err
	}
	if err := corePass(r, env.be.mgr, touchSetup(), captured); err != nil {
		return nil, err
	}
	return r, writeTrace(rc, tr)
}

// fig4aProbe slides once over a fresh object at each Figure 4(a) speed,
// each on a fresh session, checking every summary and that slower
// slides return strictly more entries.
func fig4aProbe(r *report, cl *protocol.Client, truth summaryTruth) {
	reqs := []protocol.Request{
		{Op: protocol.OpOpen},
		{Op: protocol.OpCreate, Object: "p", Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: "p", Actions: &protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: k(summaryK)}},
	}
	var entries []int
	for i, d := range fig4aSpeeds {
		sess := fmt.Sprintf("fig4a-%d", i)
		ids, err := doSetup(cl, sess, reqs)
		r.op("probe", err)
		if err != nil {
			return
		}
		frames, err := cl.Perform(sess, "p", gesture.NewSlide(0, 0, 1, d))
		r.op("probe", err)
		if err != nil {
			return
		}
		if err := truth.checkFrames(ids["p"], frames); err != nil {
			r.answerWrong("probe", err)
		}
		entries = append(entries, countKind(frames, kindSummary))
		r.op("probe", cl.Evict(sess))
	}
	if err := strictlyIncreasing(entries); err != nil {
		r.checkFailed("fig4a", err)
	} else {
		r.op("fig4a", nil)
	}
	r.note("fig4a entries at 0.5..4 s: %v", entries)
}

// noGateway reports the gateway layer of a workload that has none.
func noGateway(r *report) {
	r.set("gateway.retries", 0, "count")
	r.set("gateway.failovers", 0, "count")
}

// noAppends reports the ingest-only metrics of a workload that appends
// nothing.
func noAppends(r *report) {
	r.set("append_p50_ms", 0, "ms")
	r.set("append_p99_ms", 0, "ms")
	r.set("append_late_p99_ms", 0, "ms")
	r.set("storage.append_us", 0, "us")
	r.set("storage.live_rows", 0, "count")
	r.set("sessionlog.table_compactions_per_append", 0, "count")
}

// writeTrace saves a traced run's spans beside the scratch directory.
func writeTrace(rc runConfig, tr *tracer) error {
	path := filepath.Join(filepath.Dir(rc.work), "traces", fmt.Sprintf("%s-seed%d.ndjson", rc.workload, rc.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
