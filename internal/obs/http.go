package obs

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// HTTP exporter: the live face of the telemetry plane. The paper's
// course was operated entirely from usage statistics of a running
// cloud service; this is the piece that makes the reproduction
// scrapeable the same way — Prometheus text on /metrics, the full
// JSON snapshot on /snapshot, liveness/readiness probes, and the
// retained span ring on /debug/spans. stdlib net/http only.

// HandlerOpts configures NewHandler.
type HandlerOpts struct {
	// Ready, when non-nil, gates /readyz: a nil return serves 200, an
	// error serves 503 with the error text. Wire it to pool/breaker
	// state so a scheduler stops routing users at a sick portal.
	Ready func() error
}

// NewHandler serves the observer's telemetry:
//
//	/metrics      Prometheus text format (deterministic ordering)
//	/snapshot     full JSON snapshot (metrics + spans + events)
//	/healthz      liveness probe (always 200: the process answering
//	              is the liveness signal)
//	/readyz       readiness probe (HandlerOpts.Ready)
//	/debug/spans  retained spans as JSON Lines
func NewHandler(o *Observer, opts HandlerOpts) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry().Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		o.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/healthz", probe(nil))
	mux.HandleFunc("/readyz", probe(opts.Ready))
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		o.Tracer().WriteJSONL(w)
	})
	return mux
}

// probe renders one health check as 200 "ok" / 503 with the cause.
func probe(check func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unavailable: %v\n", err)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	}
}

// Server is a running telemetry endpoint started by Serve.
type Server struct {
	lis     net.Listener
	srv     *http.Server
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

// Serve binds addr (":0" picks a free port; read it back with Addr)
// and serves the observer's telemetry until Close. It returns as soon
// as the listener is bound, so a caller can scrape immediately.
func Serve(addr string, o *Observer, opts HandlerOpts) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	s := &Server{
		lis:  lis,
		srv:  &http.Server{Handler: NewHandler(o, opts), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(lis) // returns ErrServerClosed on Close
	}()
	return s, nil
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// URL returns the http base URL of the server.
func (s *Server) URL() string {
	if s == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// Close stops the server and waits for the serve loop to exit. Safe
// to call more than once and on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.srv.Close()
	<-s.done
	return err
}
