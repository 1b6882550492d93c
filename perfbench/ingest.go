package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dbtouch"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
	"dbtouch/internal/storage"
)

// The ingest workload is writes beside reads on one durable backend, as
// docs/operations.md recommends for fleets that ingest: an open-loop
// appender sends fixed-size batches at a fixed rate into a live table
// pre-filled to its retention cap, while one closed-loop explorer slides
// summaries over that table.

const (
	liveTable = "live"
	objLive   = "l"
	// liveRetain is the table's retention cap (-retain-rows). The table
	// grows to twice the cap before retention compacts it, so it holds
	// 6k-12k rows, which the table log encodes in 150-320 KB.
	liveRetain = 6_000
	// liveBatch rows per append, liveRate appends per second: 2000 rows
	// a second, which the current table-log compaction sustains without
	// a growing backlog here.
	liveBatch = 500
	liveRate  = 4
	// liveCompact is the session-log compaction threshold: the table log
	// compacts past 4x this, 128 KiB, less than the table encodes to, so
	// every append rewrites the table. The store holds its mutex across
	// that rewrite, stalling every session's log append, so a larger
	// table makes the explorer's tail follow the disk's.
	liveCompact = 32 << 10
	// liveFill is the batch size that pre-fills the table during set-up.
	liveFill = 3_000
	// liveSessionRounds is how many explorer rounds (128 performs) one
	// explorer session lasts; its log stays below the compaction
	// threshold.
	liveSessionRounds = 8
)

func ingestSetup() []protocol.Request {
	return []protocol.Request{
		{Op: protocol.OpOpen},
		{Op: protocol.OpCreate, Object: objLive, Create: &protocol.CreateSpec{Table: liveTable, Column: "v", X: 2, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: objLive, Actions: &protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: k(summaryK)}},
	}
}

// liveRows returns global rows [lo, hi) of the appended stream: ts is
// the row number, v comes from the stream's dataset.
func liveRows(d dataset, lo, hi int) [][]any {
	rows := make([][]any, hi-lo)
	for i := range rows {
		rows[i] = []any{int64(lo + i), d.at(lo + i)}
	}
	return rows
}

func createLive(db *dbtouch.DB) (*dbtouch.LiveTable, error) {
	lt, err := db.NewLiveTable(liveTable).Int("ts", nil).Float("v", nil).Create()
	if err != nil {
		return nil, err
	}
	return lt, lt.Retain(liveRetain, 0, "")
}

type ingestEnv struct {
	dir  string
	be   *backend
	lt   *dbtouch.LiveTable
	app  *protocol.Client
	expl *protocol.Client
	id   int
	// fill is the pre-fill's last append: the window's first snapshot.
	fill appendRec
}

func setupIngest(rc runConfig, tr *tracer, rep int) (*ingestEnv, error) {
	env := &ingestEnv{dir: filepath.Join(rc.work, fmt.Sprintf("ingest-%d", rep))}
	be, err := startBackend(backendConfig{
		load: func(db *dbtouch.DB) error {
			var err error
			env.lt, err = createLive(db)
			return err
		},
		sessionDir: env.dir, compactBytes: liveCompact, tr: tr,
	})
	if err != nil {
		return nil, err
	}
	env.be = be
	env.app, env.expl = newClient(be.url, tr), newClient(be.url, tr)
	d := dataset{rc.seed + 7}
	for lo := 0; lo < liveRetain; lo += liveFill {
		_, rows, err := env.app.Append(liveTable, liveRows(d, lo, lo+liveFill))
		if err != nil {
			env.close()
			return nil, fmt.Errorf("pre-fill: %w", err)
		}
		env.fill = appendRec{rows: rows, sent: lo + liveFill}
	}
	ids, err := doSetup(env.expl, explorer, ingestSetup())
	if err != nil {
		env.close()
		return nil, err
	}
	env.id = ids[objLive]
	return env, nil
}

func (e *ingestEnv) close() {
	e.app.HTTPClient.CloseIdleConnections()
	e.expl.HTTPClient.CloseIdleConnections()
	e.be.close()
}

// appendRec is one append as the appender saw it. The snapshot it
// published is the last rows rows of the sent rows sent so far.
type appendRec struct {
	due, start, end time.Time
	rows, sent      int
	err             error
	// compacted reports that the table log was rewritten (traced runs).
	compacted bool
}

// performRec is one explorer perform awaiting its check.
type performRec struct {
	start, end time.Time
	objID      int
	frames     []protocol.ResultFrame
}

// snapshotLog is what the appender has published so far: snaps[0] is
// the pre-fill, snaps[i+1] what append i published. The explorer checks
// each perform as soon as every append that may have published its
// snapshot has answered, so it holds only a few performs' frames: kept
// frames would grow the heap the servers' collector must mark.
type snapshotLog struct {
	mu    sync.Mutex
	d     dataset
	snaps []appendRec
	// inflight is when the unanswered append was sent; zero when none is.
	inflight time.Time
	pending  []performRec
}

func (l *snapshotLog) sending(at time.Time) {
	l.mu.Lock()
	l.inflight = at
	l.mu.Unlock()
}

func (l *snapshotLog) answered(a appendRec) {
	l.mu.Lock()
	l.snaps = append(l.snaps, a)
	l.inflight = time.Time{}
	l.mu.Unlock()
}

// checkReady adds p (if non-nil) and checks every pending perform whose
// candidate snapshots are all known; final checks the rest too.
func (l *snapshotLog) checkReady(r *report, p *performRec, final bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p != nil {
		l.pending = append(l.pending, *p)
	}
	for len(l.pending) > 0 {
		p := &l.pending[0]
		if !final && !l.inflight.IsZero() && !l.inflight.After(p.end) {
			return // the unanswered append may have published its snapshot
		}
		if err := l.check(p); err != nil {
			r.answerWrong("perform", err)
		}
		l.pending = l.pending[1:]
	}
}

// check requires every summary of p to equal a recomputation over the
// snapshot of some epoch that may have been current between the
// perform's send and its response: snapshot i was published during the
// append that made it and replaced during the next one.
func (l *snapshotLog) check(p *performRec) error {
	var tried []int
	for i, s := range l.snaps {
		if i > 0 && s.start.After(p.end) {
			break
		}
		if i+1 < len(l.snaps) && l.snaps[i+1].end.Before(p.start) || s.err != nil {
			continue
		}
		first := s.sent - s.rows
		truth := summaryTruth{rows: s.rows, k: summaryK, at: func(row int) float64 { return l.d.at(first + row) }, maxAbs: 1000}
		if truth.checkFrames(p.objID, p.frames) == nil {
			return nil
		}
		tried = append(tried, s.rows)
	}
	return fmt.Errorf("no snapshot current during the perform matches its %d frames (snapshot sizes tried: %v)", len(p.frames), tried)
}

func runIngest(rc runConfig) (*report, error) {
	r := newReport()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	env, err := setupTimer(r, rc, func(i int) (*ingestEnv, error) { return setupIngest(rc, tr, i) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	d := dataset{rc.seed + 7}
	script := ingestScript(rc.seed)
	stores := []*sessionlog.Store{env.be.store}
	mgrs := []*session.Manager{env.be.mgr}
	before := readLogCounters(stores, mgrs)
	n := liveRate * rc.seconds
	appends := make([]appendRec, n)
	snaps := &snapshotLog{d: d, snaps: []appendRec{env.fill}}
	var tl timeline
	var performs int64

	w := startWindow(tr)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		tableLog := filepath.Join(env.dir, "t-"+liveTable+".log")
		var prev os.FileInfo
		if tr != nil {
			prev, _ = os.Stat(tableLog)
		}
		interval := time.Second / liveRate
		for i := range appends {
			a := &appends[i]
			a.due = w.start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(a.due))
			lo := liveRetain + i*liveBatch
			batch := liveRows(d, lo, lo+liveBatch)
			a.start = time.Now()
			snaps.sending(a.start)
			_, a.rows, a.err = env.app.Append(liveTable, batch)
			a.end = time.Now()
			a.sent = lo + liveBatch
			snaps.answered(*a)
			if tr != nil {
				tr.add(layerClient, spanKey("", liveTable), protocol.OpAppend, a.start, a.end)
				// Table-log compaction renames a rewritten log over the
				// old one, so a changed file identity counts one.
				if cur, err := os.Stat(tableLog); err == nil {
					a.compacted = prev != nil && !os.SameFile(prev, cur)
					prev = cur
				}
			}
		}
	}()
	objID := env.id
	for round, running := 0, true; running; round++ {
		if round > 0 && round%liveSessionRounds == 0 {
			// The explorer's session ends and a new one starts, as a
			// user's would: a session's log, its compactions and its
			// resume replay all grow with its age, which would make the
			// window's second half slower than its first.
			r.op("session", env.expl.Evict(explorer))
			ids, err := doSetup(env.expl, explorer, ingestSetup())
			r.op("session", err)
			objID = ids[objLive]
		}
		for _, g := range script {
			g := g
			start := time.Now()
			resp, err := env.expl.Do(protocol.Request{Op: protocol.OpPerform, Session: explorer, Object: objLive, Gesture: &g})
			end := time.Now()
			if tr != nil {
				tr.add(layerClient, explorer, protocol.OpPerform, start, end)
			}
			performs++
			r.op("perform", err)
			if err != nil {
				snaps.checkReady(r, nil, false)
				continue
			}
			tl.add(w.start, start, end, len(resp.Results))
			snaps.checkReady(r, &performRec{start: start, end: end, objID: objID, frames: resp.Results}, false)
		}
		select {
		case <-done:
			running = false
		default:
		}
	}
	wg.Wait()
	w.end(r, performs+int64(n))
	snaps.checkReady(r, nil, true)

	var appendLat, late samples
	compactions := 0
	for _, a := range appends {
		r.op("append", a.err)
		if a.err == nil {
			appendLat.add(float64(a.end.Sub(a.due)) / 1e6)
		}
		late.add(float64(a.start.Sub(a.due)) / 1e6)
		if a.compacted {
			compactions++
		}
	}
	r.note("appender: %d appends of %d rows at %d/s, late p50=%.4fms p99=%.4fms max=%.4fms",
		n, liveBatch, liveRate, late.quantile(0.5), late.quantile(0.99), late.quantile(1))
	performMetrics(r, tl, rc.trace)
	// The explorer's session ends with the window. Left open, it would
	// hold the snapshot its last perform saw, and whether a later
	// append had replaced that snapshot depends on timing: heap_mb read
	// 0.98 MB instead of 0.58 MB in one run of ten.
	r.op("session", env.expl.Evict(explorer))
	liveHeap(r)
	if !rc.trace {
		return r, nil
	}
	r.set("append_p50_ms", appendLat.quantile(0.5), "ms")
	r.set("append_p99_ms", appendLat.quantile(0.99), "ms")
	r.set("append_late_p99_ms", late.quantile(0.99), "ms")
	r.note("append: n=%d p50=%.4fms p99=%.4fms samples-beyond-p99=%d",
		appendLat.n(), appendLat.quantile(0.5), appendLat.quantile(0.99), appendLat.tailSamples(0.99))
	r.set("sessionlog.table_compactions_per_append", float64(compactions)/float64(n), "count")
	r.set("storage.live_rows", float64(env.lt.Rows()), "count")
	r.set("stream_p50_ms", 0, "ms")
	r.set("protocol.stream_bytes_per_result", 0, "B")
	noGateway(r)
	wireLayers(r, tr)
	if err := logLayers(r, env.dir, stores, mgrs, before, performs); err != nil {
		return nil, err
	}
	if err := storagePass(r, d, n); err != nil {
		return nil, err
	}
	steps := make([]step, 0, maxCaptured)
	for i := 0; i < int(performs) && i < maxCaptured; i++ {
		steps = append(steps, step{objLive, script[i%len(script)]})
	}
	if err := corePass(r, env.be.mgr, ingestSetup(), steps); err != nil {
		return nil, err
	}
	return r, writeTrace(rc, tr)
}

// storagePass re-drives the window's batches through Manager.Append on
// a fresh in-memory instance with no log attached, timing the publish
// alone.
func storagePass(r *report, d dataset, n int) error {
	db := dbtouch.Open()
	defer db.Manager().Close()
	if _, err := createLive(db); err != nil {
		return err
	}
	mgr := db.Manager()
	values := func(rows [][]any) [][]storage.Value {
		out := make([][]storage.Value, len(rows))
		for i, row := range rows {
			out[i] = make([]storage.Value, len(row))
			for j, cell := range row {
				out[i][j] = protocol.CoerceValue(cell)
			}
		}
		return out
	}
	for lo := 0; lo < liveRetain; lo += liveFill {
		if _, err := mgr.Append(liveTable, values(liveRows(d, lo, lo+liveFill))); err != nil {
			return err
		}
	}
	var times samples
	for i := 0; i < n; i++ {
		lo := liveRetain + i*liveBatch
		batch := values(liveRows(d, lo, lo+liveBatch))
		start := time.Now()
		if _, err := mgr.Append(liveTable, batch); err != nil {
			return err
		}
		times.add(float64(time.Since(start)) / 1e3)
	}
	r.set("storage.append_us", times.quantile(0.5), "us")
	return nil
}
