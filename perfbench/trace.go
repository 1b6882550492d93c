package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first.
const (
	layerClient  = "client"
	layerGateway = "gateway"
	layerBackend = "backend"
	layerRouter  = "router"
)

// span is one timed call at a layer boundary. Key is the session id (or
// "table:<name>" for appends): every workload keeps at most one request
// per session in flight at every layer, so a span's children are the
// next layer's spans of the same key that start inside it. Parent and
// Req are filled in by link.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Op     string `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and byte counts in memory for the whole run; they
// are linked and written out once the run ends.
type tracer struct {
	t0 time.Time
	// on gates recording to the measured window: set-up and the
	// post-run checks issue requests too.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span

	rpcResponses atomic.Int64
	rpcBytes     atomic.Int64
	streamBytes  atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func spanKey(session, table string) string {
	if session == "" && table != "" {
		return "table:" + table
	}
	return session
}

func (t *tracer) add(name, key, op string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{Name: name, Key: key, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1, Req: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler times an http.Handler's /rpc requests. It reads the request
// body first to learn the session and op, then starts the clock.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/rpc" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var peek struct {
			Op      string `json:"op"`
			Session string `json:"session"`
			Table   string `json:"table"`
		}
		_ = json.Unmarshal(body, &peek) // a malformed body is the handler's to reject
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, spanKey(peek.Session, peek.Table), peek.Op, start, time.Now())
	})
}

// countingTransport counts response body bytes on the client side:
// /rpc responses and /stream bytes separately.
type countingTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := c.next.RoundTrip(req)
	if err != nil {
		return res, err
	}
	ctr := &c.tr.rpcBytes
	if req.URL.Path == "/stream" {
		ctr = &c.tr.streamBytes
	} else if c.tr.on.Load() {
		c.tr.rpcResponses.Add(1)
	}
	res.Body = &countingBody{ReadCloser: res.Body, n: ctr, on: &c.tr.on}
	return res, nil
}

func (c *countingTransport) CloseIdleConnections() {
	if ci, ok := c.next.(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// countingBody counts the bytes read while the tracer is on; a stream
// opened during set-up is counted from the measured window's start.
type countingBody struct {
	io.ReadCloser
	n  *atomic.Int64
	on *atomic.Bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.on.Load() {
		b.n.Add(int64(n))
	}
	return n, err
}

// link sets every span's parent (the enclosing span one layer out with
// the same key) and request id (the index of its root client span).
// Layers a workload lacks are skipped: without a gateway, backend spans
// hang off client spans.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	byLayerKey := map[string]map[string][]int{}
	for i, s := range t.spans {
		m := byLayerKey[s.Name]
		if m == nil {
			m = map[string][]int{}
			byLayerKey[s.Name] = m
		}
		m[s.Key] = append(m[s.Key], i)
	}
	layers := []string{layerClient, layerGateway, layerBackend, layerRouter}
	for ci := 1; ci < len(layers); ci++ {
		for key, kids := range byLayerKey[layers[ci]] {
			// The nearest outer layer that has spans for this key.
			var parents []int
			for pi := ci - 1; pi >= 0 && parents == nil; pi-- {
				parents = byLayerKey[layers[pi]][key]
			}
			p := 0
			for _, k := range kids {
				ks := t.spans[k].Start
				for p < len(parents) && t.spans[parents[p]].End < ks {
					p++
				}
				if p < len(parents) && t.spans[parents[p]].Start <= ks {
					t.spans[k].Parent = parents[p]
				}
			}
		}
	}
	for i := range t.spans {
		root := i
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		if t.spans[root].Name == layerClient {
			t.spans[i].Req = root
		}
	}
}

// selfTimes returns, for each span of layer name and op, its duration
// minus the durations of its direct children, in microseconds: the time
// the layer itself spent. Call after link.
func (t *tracer) selfTimes(name, op string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := &samples{}
	for i, s := range t.spans {
		if s.Name == name && s.Op == op {
			self := s.dur() - child[i]
			if self < 0 {
				self = 0
			}
			out.add(float64(self) / 1e3)
		}
	}
	return out
}

// durations returns the plain durations of a layer's spans for one op,
// in microseconds.
func (t *tracer) durations(name, op string) *samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &samples{}
	for _, s := range t.spans {
		if s.Name == name && s.Op == op {
			out.add(float64(s.dur()) / 1e3)
		}
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
