package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
)

// Middleware hardening the serving path: every request gets an ID, every
// handler panic becomes a 500 JSON error (the process keeps serving),
// and a concurrency limiter sheds load with 503 + Retry-After instead of
// letting saturation grow unbounded queues. Health endpoints bypass the
// limiter so probes keep working while the server sheds.

const requestIDHeader = "X-Request-Id"

// requestID mints a process-unique request ID and exposes it on the
// response, so a client-reported failure can be matched to a server log
// line.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("req-%d", atomic.AddUint64(&s.reqCounter, 1))
		w.Header().Set(requestIDHeader, id)
		next.ServeHTTP(w, r)
	})
}

// withRecover converts a handler panic into a 500 JSON error while the
// server keeps serving other requests. If the response has already been
// partially written the connection is left to die; otherwise the client
// gets a structured error naming the request ID.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				mPanics.Inc()
				id := w.Header().Get(requestIDHeader)
				s.reqLog(r, w.Header()).Error("panic serving request",
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				s.writeJSON(w, http.StatusInternalServerError, map[string]string{
					"error":     fmt.Sprintf("internal error: %v", rec),
					"requestId": id,
				})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withConcurrencyLimit admits at most MaxConcurrent requests at a time;
// the rest are shed immediately with 503 + Retry-After. Shedding beats
// queueing for an interactive query service: a saturated process answers
// "try again" in microseconds instead of stacking goroutines.
func (s *Server) withConcurrencyLimit(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isOpsPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			next.ServeHTTP(w, r)
		default:
			atomic.AddInt64(&s.shedCount, 1)
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds))
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"error": "server saturated; retry later",
			})
		}
	})
}

// isOpsPath lists the operational endpoints that bypass the concurrency
// limiter: probes must answer while the server sheds, and a scrape is
// most valuable exactly when the server is saturated.
func isOpsPath(p string) bool { return p == "/healthz" || p == "/readyz" || p == "/metrics" }

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz reports readiness: the store is open and the server is
// not draining for shutdown. Load balancers use this to stop routing
// before the process exits.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	snap := s.eng.Snapshot()
	resp := map[string]any{
		"status": "ok",
		"nodes":  snap.Source().NodeCount(),
		"edges":  snap.Source().EdgeCount(),
		"epoch":  snap.Epoch(),
	}
	if last := snap.LastUpdate(); last != nil {
		resp["lastUpdate"] = last
	}
	// Degraded is still ready (200): the server answers every query that
	// avoids the quarantined pages, so pulling it from rotation would turn
	// a partial failure into a total one. Probes and dashboards see the
	// state; /api/admin/verify heals it.
	if s.eng.Degraded() {
		resp["status"] = "degraded"
		resp["quarantinedPages"] = s.eng.QuarantinedPages()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// SetReady flips the readiness gate; main flips it false on SIGTERM so
// probes fail while in-flight queries drain.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the server accepts new work.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// ShedCount reports how many requests the concurrency limiter has shed.
func (s *Server) ShedCount() int64 { return atomic.LoadInt64(&s.shedCount) }
