package ingress

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sync/atomic"
)

// maxBodyBytes bounds an infer request's JSON body; the serving engines carry
// no payload, so the body is validated and discarded.
const maxBodyBytes = 1 << 20

// ServerConfig wires a Server to its serving system. The Server holds plain
// funcs rather than a concrete system type so the root loki package (which
// imports ingress) can hand its MultiSystem over without a dependency cycle.
type ServerConfig struct {
	// Pipelines are the mounted pipeline names; requests naming any other
	// pipeline answer 404.
	Pipelines []string
	// Submit admits one request for a pipeline at the system's current time.
	// An admission refusal returns an error unwrapping to ErrShed (answered
	// 429 with its Retry-After hint); any other error answers 503.
	Submit func(ctx context.Context, pipeline string) error
	// Snapshot returns a pipeline's live counters; the value is marshaled to
	// JSON verbatim.
	Snapshot func(pipeline string) (any, error)
	// Draining, when non-nil and true, fails fast: new infer requests and
	// health checks answer 503 while in-flight work keeps draining.
	// Observation endpoints stay up.
	Draining func() bool
	// Metrics, when non-nil, renders the system's telemetry registry in
	// Prometheus text exposition format; it is mounted at GET /metrics.
	// Nil leaves the endpoint unregistered (404) — the telemetry plane is
	// off. Like the other observation endpoints it stays up while draining.
	Metrics func(w io.Writer)
}

// Server is the HTTP front door: it mounts per-pipeline infer and snapshot
// endpoints plus a health check, translating admission decisions into HTTP
// status codes (202 admitted, 429 + Retry-After shed, 503 draining).
//
//	POST /v1/{pipeline}/infer     admit one request (optional JSON body)
//	GET  /v1/{pipeline}/snapshot  live counters as JSON
//	GET  /metrics                 Prometheus text exposition (when wired)
//	GET  /healthz                 200 while serving, 503 while draining
type Server struct {
	cfg    ServerConfig
	known  map[string]bool
	mux    *http.ServeMux
	panics atomic.Int64
}

// NewServer builds the front door over the given system hooks.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, known: make(map[string]bool, len(cfg.Pipelines)), mux: http.NewServeMux()}
	for _, name := range cfg.Pipelines {
		s.known[name] = true
	}
	s.mux.HandleFunc("POST /v1/{pipeline}/infer", s.recovered(s.infer))
	s.mux.HandleFunc("GET /v1/{pipeline}/snapshot", s.recovered(s.snapshot))
	if cfg.Metrics != nil {
		s.mux.HandleFunc("GET /metrics", s.recovered(s.metrics))
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

// Panics returns how many handler panics the recovery middleware has caught.
func (s *Server) Panics() int64 { return s.panics.Load() }

// recovered wraps a handler so a panic in the serving hooks (Submit and
// Snapshot run arbitrary system code) downgrades to a 500 on that one
// request instead of killing the whole front door: the panic is counted,
// logged, and the connection closed, but the listener keeps serving.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.panics.Add(1)
			log.Printf("ingress: panic serving %s %s: %v", r.Method, r.URL.Path, rec)
			// Best effort: if the handler already wrote a status line this
			// write is a no-op error, and the closed connection signals the
			// failure instead.
			w.Header().Set("Connection", "close")
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal error"})
		}()
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) draining() bool { return s.cfg.Draining != nil && s.cfg.Draining() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSec repeats the Retry-After header with sub-second
	// precision (the header is whole seconds, rounded up).
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
	// Tier, on shed responses, is the service tier of the pipeline that was
	// refused — load-shedding dashboards can confirm the low tiers degrade
	// first without knowing the tenant layout.
	Tier *int `json:"tier,omitempty"`
}

func (s *Server) infer(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("pipeline")
	if !s.known[name] {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown pipeline %q", name)})
		return
	}
	if s.draining() {
		// Draining is transient from the client's view — another replica (or
		// a restart) takes over shortly, so the 503 carries a retry hint too.
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Connection", "close")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining", RetryAfterSec: 1})
		return
	}
	// The engines carry no request payload, so the body only needs to be
	// well-formed JSON (or empty); it is read fully to keep the connection
	// reusable.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("body exceeds %d bytes", maxBodyBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "unreadable body"})
		return
	}
	if len(body) > 0 && !json.Valid(body) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body is not valid JSON"})
		return
	}
	if err := s.cfg.Submit(r.Context(), name); err != nil {
		var se *ShedError
		if errors.As(err, &se) {
			// Retry-After is whole seconds per RFC 9110; round up so the
			// header never tells a client to retry before capacity exists.
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(se.RetryAfterSec))))
			tier := se.Tier
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "shed", RetryAfterSec: se.RetryAfterSec, Tier: &tier})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	// The engines complete requests asynchronously (no per-request completion
	// signal reaches the frontend), so admission is acknowledged rather than
	// answered: 202, with outcomes visible through the snapshot endpoint.
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "accepted"})
}

func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("pipeline")
	if !s.known[name] {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown pipeline %q", name)})
		return
	}
	snap, err := s.cfg.Snapshot(name)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// metrics serves the Prometheus text exposition. The version=0.0.4 media
// type is the text-format contract Prometheus scrapers negotiate.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.cfg.Metrics(w)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
