package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"path/filepath"
	"time"

	"dbtouch"
	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
)

// The fleet workload is many users through the gateway, durable: one
// closed-loop client with AutoResume spreads Zipf-skewed traffic over
// four times more sessions than each backend's LRU session cap, so
// about a quarter of performs find their session parked and resume it
// from the shared session log.

const (
	fleetRows     = 1_000_000
	fleetSessions = 256
	fleetBackends = 2
	// fleetCap is each backend's live-session cap (-max-sessions).
	fleetCap = 32
	// fleetCompact is the session-log compaction threshold
	// (-session-compact): low, so hot sessions compact several times a run.
	fleetCompact = 4 << 10
	// fleetScript is how many gestures each session cycles through.
	fleetScript = 32
	// fleetRound is the client's perform count per round; runs stop at a
	// round boundary.
	fleetRound = 32
	// fleetZipf is the session-popularity exponent.
	fleetZipf = 1.1
	objColumn = "c"
)

func fleetSetup() []protocol.Request {
	return []protocol.Request{
		{Op: protocol.OpOpen},
		{Op: protocol.OpCreate, Object: objColumn, Create: &protocol.CreateSpec{Table: "t", Column: "v", X: 2, Y: 2, W: 2, H: 10}},
		{Op: protocol.OpConfigure, Object: objColumn, Actions: &protocol.ActionsSpec{Mode: "summary", Agg: "avg", K: k(summaryK)}},
	}
}

// perBackend is how many sessions each backend serves: backend b
// serves sessions [b*perBackend, (b+1)*perBackend).
const perBackend = fleetSessions / fleetBackends

// placement mirrors the gateway's rendezvous hashing (route in
// internal/gateway): a session goes to the backend whose FNV-64a hash
// of the session id, a zero byte and the backend's base URL is highest.
func placement(session string, bases []string) int {
	best, bestScore := -1, uint64(0)
	for i, base := range bases {
		h := fnv.New64a()
		io.WriteString(h, session)
		h.Write([]byte{0})
		io.WriteString(h, base)
		if score := h.Sum64(); best < 0 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// fleetNames names the sessions so that sessions [b*perBackend,
// (b+1)*perBackend) land on backend b. The backends listen on ports
// that change from run to run; without this, how many sessions, and
// which popular ones, each backend serves would change with them, and
// with it how often a perform finds its session parked.
func fleetNames(bases []string) []string {
	names := make([]string, 0, fleetSessions)
	for b := range bases {
		for i, n := 0, 0; n < perBackend; i++ {
			name := fmt.Sprintf("user-%d-%04d", b, i)
			if placement(name, bases) == b {
				names = append(names, name)
				n++
			}
		}
	}
	return names
}

func loadFleetTable(seed uint64) func(db *dbtouch.DB) error {
	return func(db *dbtouch.DB) error {
		return db.NewTable("t").Float("v", dataset{seed}.column(fleetRows)).Create()
	}
}

type fleetEnv struct {
	dir      string
	backends []*backend
	gw       *gatewayServer
	client   *protocol.Client
	// names and ids hold each session's id and object id.
	names []string
	ids   []int
}

func setupFleet(rc runConfig, tr *tracer, rep int) (*fleetEnv, error) {
	env := &fleetEnv{dir: filepath.Join(rc.work, fmt.Sprintf("sessions-%d", rep)), ids: make([]int, fleetSessions)}
	var bases []string
	for i := 0; i < fleetBackends; i++ {
		b, err := startBackend(backendConfig{
			load: loadFleetTable(rc.seed), maxSessions: fleetCap,
			sessionDir: env.dir, compactBytes: fleetCompact, tr: tr,
		})
		if err != nil {
			env.close()
			return nil, err
		}
		env.backends = append(env.backends, b)
		bases = append(bases, b.url)
	}
	gw, err := startGateway(env.backends, tr)
	if err != nil {
		env.close()
		return nil, err
	}
	env.gw = gw
	env.names = fleetNames(bases)
	env.client = newClient(gw.url, tr)
	env.client.AutoResume = true
	return env, nil
}

// checkPlacement requires the gateway to have pinned every session the
// window used to the backend fleetNames chose for it.
func (e *fleetEnv) checkPlacement(r *report, used []bool) {
	pins := e.gw.g.Stats().Sessions
	for s, name := range e.names {
		if want := e.backends[s/perBackend].url; used[s] && pins[name] != want {
			r.checkFailed("placement", fmt.Errorf("gateway placed session %s on %q, want %q", name, pins[name], want))
			return
		}
	}
	r.op("placement", nil)
}

func (e *fleetEnv) close() {
	if e.client != nil {
		e.client.HTTPClient.CloseIdleConnections()
	}
	if e.gw != nil {
		e.gw.close()
	}
	for _, b := range e.backends {
		b.close()
	}
}

// fleetUser is the client's Zipf draw over the sessions. Popularity
// ranks alternate between the backends, so both serve the same
// popularity profile; the seed picks which of a backend's sessions
// holds each of its ranks.
type fleetUser struct {
	ranked []int
	zipf   *rand.Zipf
}

func newFleetUser(seed uint64) *fleetUser {
	r := newRand(seed, 100)
	u := &fleetUser{ranked: make([]int, fleetSessions)}
	for b := 0; b < fleetBackends; b++ {
		perm := r.Perm(perBackend)
		for i, p := range perm {
			u.ranked[i*fleetBackends+b] = b*perBackend + p
		}
	}
	u.zipf = rand.NewZipf(r, fleetZipf, 1, fleetSessions-1)
	return u
}

func (u *fleetUser) next() int { return u.ranked[u.zipf.Uint64()] }

func runFleet(rc runConfig) (*report, error) {
	r := newReport()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	env, err := setupTimer(r, rc, func(i int) (*fleetEnv, error) { return setupFleet(rc, tr, i) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	truth := summaryTruth{rows: fleetRows, k: summaryK, at: dataset{rc.seed}.at, maxAbs: 1000}
	scripts := make([][]gesture.Gesture, fleetSessions)
	for s := range scripts {
		scripts[s] = sessionScript(rc.seed, s)
	}
	// hashes[s][k] fingerprints session s's k-th perform.
	hashes := make([][]uint64, fleetSessions)
	stores, mgrs := env.stores()
	before := readLogCounters(stores, mgrs)

	var tl timeline
	var performs int64
	var captured []step
	cl, user := env.client, newFleetUser(rc.seed)
	w := startWindow(tr)
	deadline := w.start.Add(time.Duration(rc.seconds) * time.Second)
	for time.Now().Before(deadline) {
		for j := 0; j < fleetRound; j++ {
			s := user.next()
			name := env.names[s]
			k := len(hashes[s]) % fleetScript
			if len(hashes[s]) == 0 {
				ids, err := doSetup(cl, name, fleetSetup())
				r.op("open", err)
				env.ids[s] = ids[objColumn]
			} else if k == 0 {
				id, err := restartSession(cl, name)
				r.op("restart", err)
				env.ids[s] = id
			}
			g := scripts[s][k]
			start := time.Now()
			resp, err := cl.Do(protocol.Request{Op: protocol.OpPerform, Session: name, Object: objColumn, Gesture: &g})
			end := time.Now()
			if tr != nil {
				tr.add(layerClient, name, protocol.OpPerform, start, end)
			}
			performs++
			r.op("perform", err)
			if err != nil {
				// The session's state is unknown until it restarts;
				// 0 tells the control comparison to skip it.
				hashes[s] = append(hashes[s], 0)
				continue
			}
			tl.add(w.start, start, end, len(resp.Results))
			hashes[s] = append(hashes[s], hashFrames(resp.Results))
			if err := truth.checkFrames(env.ids[s], resp.Results); err != nil {
				r.answerWrong("perform", err)
			}
			if len(captured) < maxCaptured {
				captured = append(captured, step{objColumn, g})
			}
		}
	}
	w.end(r, performs)
	used := make([]bool, fleetSessions)
	for s, hs := range hashes {
		used[s] = len(hs) > 0
	}
	env.checkPlacement(r, used)
	performMetrics(r, tl, rc.trace)
	liveHeap(r)
	gst := env.gw.g.Stats()
	r.note("gateway: %d retries, %d failovers, %d resumes", gst.Retries, gst.Failovers, gst.Resumes)
	if err := fleetControl(r, rc.seed, env.names, scripts, hashes); err != nil {
		return nil, err
	}
	if !rc.trace {
		return r, nil
	}
	r.set("gateway.retries", float64(gst.Retries), "count")
	r.set("gateway.failovers", float64(gst.Failovers), "count")
	r.set("stream_p50_ms", 0, "ms")
	r.set("protocol.stream_bytes_per_result", 0, "B")
	wireLayers(r, tr)
	noAppends(r)
	env.gw.close()
	env.gw = nil
	if err := logLayers(r, env.dir, stores, mgrs, before, performs); err != nil {
		return nil, err
	}
	if err := corePass(r, env.backends[0].mgr, fleetSetup(), captured); err != nil {
		return nil, err
	}
	return r, writeTrace(rc, tr)
}

func (e *fleetEnv) stores() ([]*sessionlog.Store, []*session.Manager) {
	var stores []*sessionlog.Store
	var mgrs []*session.Manager
	for _, b := range e.backends {
		stores = append(stores, b.store)
		mgrs = append(mgrs, b.mgr)
	}
	return stores, mgrs
}

// restartSession ends a session whose user has run its script once and
// opens it afresh, so sessions stay as young as real users' and the
// cost of resuming one does not grow through the window. Ending a
// session the LRU cap already parked answers "gone", which ends it as
// well; the open then discards its parked log.
func restartSession(cl *protocol.Client, name string) (int, error) {
	if resp, err := cl.Do(protocol.Request{Op: protocol.OpEvict, Session: name}); err != nil && !resp.Gone {
		return 0, err
	}
	ids, err := doSetup(cl, name, fleetSetup())
	return ids[objColumn], err
}

// fleetControl runs every session's script once in process, on a fresh
// manager that never evicts, and requires every perform the fleet
// answered, resumed or not, to have returned the control's frames for
// the same step of the script. A lifetime with a failed perform is not
// compared after it.
func fleetControl(r *report, seed uint64, names []string, scripts [][]gesture.Gesture, hashes [][]uint64) error {
	db := dbtouch.Open()
	if err := loadFleetTable(seed)(db); err != nil {
		return err
	}
	mgr := db.Manager()
	defer mgr.Close()
	var compared, mismatched int64
	for s, hs := range hashes {
		name := names[s]
		for _, req := range fleetSetup() {
			req.V, req.Session = protocol.Version, name
			if resp := mgr.HandleRequest(req); !resp.OK {
				return fmt.Errorf("control: %s: %s", req.Op, resp.Error)
			}
		}
		control := make([]uint64, fleetScript)
		for k := range control {
			g := scripts[s][k]
			resp := mgr.HandleRequest(protocol.Request{V: protocol.Version, Op: protocol.OpPerform, Session: name, Object: objColumn, Gesture: &g})
			if !resp.OK {
				return fmt.Errorf("control: perform: %s", resp.Error)
			}
			control[k] = hashFrames(resp.Results)
		}
		mgr.Evict(name)
		skip := -1
		for i, h := range hs {
			lifetime := i / fleetScript
			if h == 0 {
				skip = lifetime
			}
			if lifetime == skip {
				continue
			}
			compared++
			if h != control[i%fleetScript] {
				mismatched++
				if mismatched <= 3 {
					r.note("control: session %s perform %d differs from the control", name, i)
				}
			}
		}
	}
	r.opN("control", compared, 0)
	for i := int64(0); i < mismatched; i++ {
		r.answerWrong("control", fmt.Errorf("a perform's frames differ from the control session's"))
	}
	r.note("control: %d performs compared over %d sessions", compared, len(hashes))
	return nil
}
