package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"dbtouch/internal/protocol"
)

// The answer checks compare the program's frames with values computed
// apart from it, from the benchmark's data functions, or with required
// properties. None compares against stored output.

const kindSummary = "summary"

// summaryTruth recomputes the summary frames of one column object: an
// avg over the half-window k around the touched tuple, read from the
// sample level the frame reports. The sample at level L holds every
// 2^L-th base value, starting at row 0.
type summaryTruth struct {
	rows int
	k    int
	at   func(row int) float64
	// maxAbs bounds |value|, which bounds the program's prefix sums and
	// so the rounding the mean may carry.
	maxAbs float64
}

func (t summaryTruth) check(f protocol.ResultFrame) error {
	if f.Kind != kindSummary {
		return nil
	}
	lo, hi := f.TupleID-t.k, f.TupleID+t.k+1
	lo, hi = max(lo, 0), min(hi, t.rows)
	if f.TupleID < 0 || f.TupleID >= t.rows || f.WindowLo != lo || f.WindowHi != hi {
		return fmt.Errorf("summary at tuple %d of %d: window [%d,%d), want [%d,%d)",
			f.TupleID, t.rows, f.WindowLo, f.WindowHi, lo, hi)
	}
	if f.Level < 0 || f.Level > 30 {
		return fmt.Errorf("summary at tuple %d: level %d out of range", f.TupleID, f.Level)
	}
	stride := 1 << f.Level
	from, to := lo/stride, (hi+stride-1)/stride
	n := to - from
	if f.N != int64(n) {
		return fmt.Errorf("summary at tuple %d level %d: n %d, want %d", f.TupleID, f.Level, f.N, n)
	}
	var sum float64
	for e := from; e < to; e++ {
		sum += t.at(e * stride)
	}
	want := sum / float64(n)
	// The program differences prefix sums that reach to*maxAbs; each of
	// the window's additions may round by one ulp of that magnitude.
	tol := 8 * float64(n+1) * 0x1p-52 * float64(to) * t.maxAbs / float64(n)
	if diff := math.Abs(f.Agg - want); !(diff <= tol) {
		return fmt.Errorf("summary at tuple %d level %d: mean %v, want %v (|diff| %g > %g)",
			f.TupleID, f.Level, f.Agg, want, diff, tol)
	}
	return nil
}

// checkFrames applies truth to every summary frame of one object.
func (t summaryTruth) checkFrames(objectID int, frames []protocol.ResultFrame) error {
	for _, f := range frames {
		if f.ObjectID != objectID {
			continue
		}
		if err := t.check(f); err != nil {
			return err
		}
	}
	return nil
}

// countKind counts frames of one kind.
func countKind(frames []protocol.ResultFrame, kind string) int {
	n := 0
	for _, f := range frames {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

// strictlyIncreasing checks the Figure 4(a) property: a slower full
// slide over a fresh object returns strictly more entries.
func strictlyIncreasing(entries []int) error {
	for i := 1; i < len(entries); i++ {
		if entries[i] <= entries[i-1] {
			return fmt.Errorf("entries by slide speed %v: not strictly increasing at %d", entries, i)
		}
	}
	return nil
}

// hashFrames fingerprints a perform's frames, every field included, so
// two runs of the same script can be compared without keeping frames.
func hashFrames(frames []protocol.ResultFrame) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(len(frames)))
	for _, f := range frames {
		str(f.Kind)
		str(f.Value)
		str(f.GroupKey)
		for _, v := range []int64{int64(f.ObjectID), int64(f.TupleID), int64(f.Col),
			int64(f.WindowLo), int64(f.WindowHi), f.N, int64(f.Matches), int64(f.Level),
			int64(f.Time), int64(f.FadeAt), int64(f.Latency)} {
			put(uint64(v))
		}
		put(math.Float64bits(f.Agg))
	}
	return h.Sum64()
}

// streamMatcher pairs the frames read off a session's binary /stream
// with the frames its /rpc responses carried: the stream must deliver
// exactly those frames, in order. It also times each perform from its
// send to the decode of its last frame off the stream.
type streamMatcher struct {
	mu   sync.Mutex
	cond *sync.Cond
	want []expected
	got  []streamed
	// broken is set at the first mismatch: later frames cannot be
	// paired, so every later perform counts as failed.
	broken  bool
	failed  int64
	matched int64
	// frames counts the frames paired for recorded performs.
	frames  int64
	latency samples
}

type expected struct {
	sent   time.Time
	frames []protocol.ResultFrame
	next   int
	// record says whether this perform's stream latency belongs to the
	// measured window.
	record bool
}

type streamed struct {
	f  protocol.ResultFrame
	at time.Time
}

func newStreamMatcher() *streamMatcher {
	m := &streamMatcher{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// expect registers one perform's /rpc frames.
func (m *streamMatcher) expect(sent time.Time, frames []protocol.ResultFrame, record bool) {
	m.mu.Lock()
	m.want = append(m.want, expected{sent: sent, frames: frames, record: record})
	m.matchLocked()
	m.mu.Unlock()
}

func (m *streamMatcher) deliver(f protocol.ResultFrame, at time.Time) {
	m.mu.Lock()
	m.got = append(m.got, streamed{f: f, at: at})
	m.matchLocked()
	m.mu.Unlock()
}

func (m *streamMatcher) matchLocked() {
	for len(m.want) > 0 {
		w := &m.want[0]
		if m.broken {
			m.failed++
			m.want = m.want[1:]
			continue
		}
		for w.next < len(w.frames) && len(m.got) > 0 {
			if m.got[0].f != w.frames[w.next] {
				m.broken = true
				break
			}
			if w.record {
				m.frames++
				if w.next == len(w.frames)-1 {
					m.latency.add(float64(m.got[0].at.Sub(w.sent)) / 1e6)
				}
			}
			w.next++
			m.got = m.got[1:]
		}
		if m.broken {
			continue
		}
		if w.next < len(w.frames) {
			break // the rest is still on the wire
		}
		m.matched++
		m.want = m.want[1:]
	}
	m.cond.Broadcast()
}

// drain waits until every expected perform is paired, or the timeout
// passes; unpaired performs and frames the /rpc never returned count as
// failed.
func (m *streamMatcher) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.want) > 0 && time.Now().Before(deadline) {
		m.cond.Wait()
	}
	m.failed += int64(len(m.want))
	m.want = nil
	if len(m.got) > 0 {
		m.failed++
		m.got = nil
	}
}
