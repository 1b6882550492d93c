package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dbtouch"
	"dbtouch/internal/core"
	"dbtouch/internal/gateway"
	"dbtouch/internal/protocol"
	"dbtouch/internal/session"
	"dbtouch/internal/sessionlog"
)

// The servers are assembled from the same public constructors
// cmd/dbtouch-serve and cmd/dbtouch-gateway use, with the same HTTP
// server settings, and listen on real loopback TCP.

// server is one listening http.Server.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			IdleTimeout:       2 * time.Minute,
			MaxHeaderBytes:    64 << 10,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", s.url, err)
		}
	}()
	return s, nil
}

// close cuts every connection (attached streams included) and waits
// for the accept loop to end.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// backendConfig describes one dbtouch-serve equivalent.
type backendConfig struct {
	// load registers the backend's tables.
	load func(db *dbtouch.DB) error
	// maxSessions is the LRU session cap (-max-sessions), 0 = none.
	maxSessions int
	// sessionDir turns on durability (-session-dir).
	sessionDir   string
	compactBytes int64
	tr           *tracer
}

type backend struct {
	db    *dbtouch.DB
	mgr   *session.Manager
	store *sessionlog.Store
	*server
}

func startBackend(cfg backendConfig) (*backend, error) {
	db := dbtouch.Open()
	if err := cfg.load(db); err != nil {
		return nil, err
	}
	b := &backend{db: db, mgr: db.Manager()}
	if cfg.maxSessions > 0 {
		b.mgr.SetMaxSessions(cfg.maxSessions)
	}
	if cfg.sessionDir != "" {
		store, err := sessionlog.Open(sessionlog.Options{Dir: cfg.sessionDir, CompactBytes: cfg.compactBytes})
		if err != nil {
			return nil, err
		}
		b.store = store
		b.mgr.EnableDurability(store)
		if _, _, err := b.mgr.RestoreTables(); err != nil {
			store.Close()
			return nil, err
		}
	}
	health := protocol.NewHealth()
	var router protocol.Router = b.mgr
	if cfg.tr != nil {
		router = &timedRouter{mgr: b.mgr, tr: cfg.tr}
	}
	var h http.Handler = protocol.NewHTTPHandler(router,
		protocol.WithAdmitGate(health.Ready), protocol.WithRPCTimeout(time.Minute))
	if cfg.tr != nil {
		h = cfg.tr.handler(layerBackend, h)
	}
	mux := http.NewServeMux()
	mux.Handle("/healthz", health.Handler())
	mux.Handle("/", h)
	srv, err := listen(mux)
	if err != nil {
		if b.store != nil {
			b.store.Close()
		}
		return nil, err
	}
	b.server = srv
	health.Set(protocol.HealthReady)
	return b, nil
}

func (b *backend) close() {
	b.server.close()
	b.mgr.Close()
	if b.store != nil {
		b.store.Close()
	}
}

// timedRouter is the session layer's seam: a protocol.Router wrapped
// around the manager that records one span per request.
type timedRouter struct {
	mgr *session.Manager
	tr  *tracer
}

func (r *timedRouter) HandleRequest(req protocol.Request) protocol.Response {
	start := time.Now()
	resp := r.mgr.HandleRequest(req)
	r.tr.add(layerRouter, spanKey(req.Session, req.Table), req.Op, start, time.Now())
	return resp
}

func (r *timedRouter) SubscribeSession(id string, buffer int) (*core.ResultStream, error) {
	return r.mgr.SubscribeSession(id, buffer)
}

type gatewayServer struct {
	g *gateway.Gateway
	*server
}

func startGateway(backends []*backend, tr *tracer) (*gatewayServer, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	g, err := gateway.New(gateway.Options{Backends: urls})
	if err != nil {
		return nil, err
	}
	h := g.Handler()
	if tr != nil {
		h = tr.handler(layerGateway, h)
	}
	srv, err := listen(h)
	if err != nil {
		g.Close()
		return nil, err
	}
	return &gatewayServer{g: g, server: srv}, nil
}

func (gs *gatewayServer) close() {
	gs.server.close()
	gs.g.Close()
}

// newClient is one wire client with its own connection pool, so each
// workload's connection count is exactly its client count.
func newClient(base string, tr *tracer) *protocol.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	if tr != nil {
		rt = &countingTransport{next: rt, tr: tr}
	}
	return &protocol.Client{Base: base, HTTPClient: &http.Client{Transport: rt}}
}
