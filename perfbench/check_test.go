package main

import (
	"testing"
	"time"

	"dbtouch"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
)

// serve sends requests for session "s" straight to the manager.
func serve(t *testing.T, mgr *session.Manager, reqs ...protocol.Request) protocol.Response {
	t.Helper()
	var resp protocol.Response
	for _, req := range reqs {
		req.V, req.Session = protocol.Version, "s"
		if resp = mgr.HandleRequest(req); !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Error)
		}
	}
	return resp
}

// programFrames slides over a summary object of a column generated by
// the benchmark's data function and returns the program's frames.
func programFrames(t *testing.T, rows int) (summaryTruth, int, []protocol.ResultFrame) {
	t.Helper()
	d := dataset{42}
	db := dbtouch.Open()
	db.NewTable("t").Float("v", d.column(rows)).MustCreate()
	mgr := db.Manager()
	t.Cleanup(mgr.Close)
	resp := serve(t, mgr, fleetSetup()[:2]...)
	id := resp.ObjectID
	serve(t, mgr, fleetSetup()[2])
	var frames []protocol.ResultFrame
	for _, g := range []gesture.Gesture{slide(500*time.Millisecond, true), slide(4*time.Second, false), gesture.NewTap(0, 0.3)} {
		resp := serve(t, mgr, protocol.Request{Op: protocol.OpPerform, Object: objColumn, Gesture: &g})
		frames = append(frames, resp.Results...)
	}
	return summaryTruth{rows: rows, k: summaryK, at: d.at, maxAbs: 1000}, id, frames
}

func TestSummaryTruthAcceptsProgramFrames(t *testing.T) {
	truth, id, frames := programFrames(t, 200_000)
	levels := map[int]bool{}
	for _, f := range frames {
		levels[f.Level] = true
	}
	if countKind(frames, kindSummary) < 20 || len(levels) < 2 {
		t.Fatalf("want summaries from several levels, got %d frames over levels %v", len(frames), levels)
	}
	if err := truth.checkFrames(id, frames); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryTruthCatchesPerturbedFrame(t *testing.T) {
	truth, id, frames := programFrames(t, 200_000)
	// The frame whose window spans the most sample entries: with one
	// entry a neighbouring level can read the very same base value, and
	// then claiming it changes no answer.
	at := -1
	for i, f := range frames {
		if f.Kind == kindSummary && (at < 0 || f.N > frames[at].N) {
			at = i
		}
	}
	if frames[at].N < 2 {
		t.Fatalf("no summary over several entries (widest n=%d)", frames[at].N)
	}
	f := frames[at]
	for name, perturb := range map[string]func(*protocol.ResultFrame){
		"mean by one part in 10^7": func(f *protocol.ResultFrame) { f.Agg *= 1 + 1e-7 },
		"count":                    func(f *protocol.ResultFrame) { f.N++ },
		"window":                   func(f *protocol.ResultFrame) { f.WindowLo--; f.WindowHi-- },
		"level":                    func(f *protocol.ResultFrame) { f.Level++ },
		"tuple":                    func(f *protocol.ResultFrame) { f.TupleID += 3 },
	} {
		bad := append([]protocol.ResultFrame(nil), frames...)
		g := f
		perturb(&g)
		bad[at] = g
		if err := truth.checkFrames(id, bad); err == nil {
			t.Errorf("perturbed %s: not caught", name)
		}
		if hashFrames(bad) == hashFrames(frames) {
			t.Errorf("perturbed %s: same fingerprint", name)
		}
	}
}

func TestStreamMatcher(t *testing.T) {
	a := []protocol.ResultFrame{{Kind: "summary", TupleID: 1}, {Kind: "summary", TupleID: 2}}
	b := []protocol.ResultFrame{{Kind: "scan", TupleID: 3}}
	t0 := time.Now()

	m := newStreamMatcher()
	m.deliver(a[0], t0.Add(time.Millisecond)) // stream ahead of the /rpc response
	m.expect(t0, a, true)
	m.deliver(a[1], t0.Add(2*time.Millisecond))
	m.expect(t0, nil, true) // a perform with no frames
	m.expect(t0.Add(3*time.Millisecond), b, true)
	m.deliver(b[0], t0.Add(5*time.Millisecond))
	m.drain(time.Second)
	if m.failed != 0 || m.matched != 3 || m.latency.n() != 2 || m.latency.quantile(1) != 2 {
		t.Fatalf("in order: failed=%d matched=%d latencies=%v", m.failed, m.matched, m.latency.vals)
	}

	dropped := newStreamMatcher()
	dropped.expect(t0, a, true)
	dropped.expect(t0, b, true)
	dropped.deliver(a[0], t0)
	dropped.deliver(b[0], t0)
	dropped.drain(10 * time.Millisecond)
	if dropped.failed == 0 {
		t.Error("a dropped stream frame was not caught")
	}

	perturbed := newStreamMatcher()
	perturbed.expect(t0, b, true)
	perturbed.deliver(protocol.ResultFrame{Kind: "scan", TupleID: 4}, t0)
	perturbed.drain(10 * time.Millisecond)
	if perturbed.failed == 0 {
		t.Error("a perturbed stream frame was not caught")
	}
}

func TestStrictlyIncreasing(t *testing.T) {
	if err := strictlyIncreasing([]int{8, 16, 23}); err != nil {
		t.Error(err)
	}
	if err := strictlyIncreasing([]int{8, 16, 16}); err == nil {
		t.Error("a plateau should fail")
	}
}

// TestCheckIngest drives a live table in process: a perform between two
// appends must match one of the snapshots current meanwhile, and a
// perturbed frame must match none.
func TestCheckIngest(t *testing.T) {
	d := dataset{9}
	db := dbtouch.Open()
	if _, err := createLive(db); err != nil {
		t.Fatal(err)
	}
	mgr := db.Manager()
	t.Cleanup(mgr.Close)
	appendRows := func(lo, hi int) appendRec {
		start := time.Now()
		resp := mgr.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpAppend, Table: liveTable, Rows: liveRows(d, lo, hi)})
		if !resp.OK {
			t.Fatal(resp.Error)
		}
		return appendRec{start: start, end: time.Now(), rows: resp.Rows, sent: hi}
	}
	log := &snapshotLog{d: d, snaps: []appendRec{appendRows(0, liveRetain)}}
	id := serve(t, mgr, ingestSetup()[:2]...).ObjectID
	serve(t, mgr, ingestSetup()[2])
	r := newReport()
	r.op("perform", nil)
	var last performRec
	for i := 0; i < 3; i++ {
		lo := liveRetain + i*liveBatch
		log.answered(appendRows(lo, lo+liveBatch))
		g := slide(time.Second, i%2 == 0)
		start := time.Now()
		resp := serve(t, mgr, protocol.Request{Op: protocol.OpPerform, Object: objLive, Gesture: &g})
		last = performRec{start: start, end: time.Now(), objID: id, frames: resp.Results}
		log.checkReady(r, &last, false)
	}
	if len(r.wrong) != 0 || len(log.pending) != 0 {
		t.Fatalf("program frames rejected: %v (%d pending)", r.wrong, len(log.pending))
	}
	bad := append([]protocol.ResultFrame(nil), last.frames...)
	bad[len(bad)/2].Agg += 1e-6
	last.frames = bad
	log.sending(last.start)
	log.checkReady(r, &last, false)
	if len(r.wrong) != 0 || len(log.pending) != 1 {
		t.Fatalf("a perform must wait for the append in flight: %d wrong, %d pending", len(r.wrong), len(log.pending))
	}
	log.checkReady(r, nil, true)
	if len(r.wrong) != 1 {
		t.Fatalf("perturbed frame: %d wrong answers, want 1", len(r.wrong))
	}
}
