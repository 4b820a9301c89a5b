// Package server exposes a Frappé engine over HTTP — the integration
// surface the paper's interface component implies (IDE plugins and the
// map UI talk to a queryable service). JSON endpoints cover every §4 use
// case, plus the rendered code map and a minimal query console.
//
//	GET  /                    query console (HTML)
//	POST /api/query           {"query": "..."} → result table
//	GET  /api/stats           Table 3 metrics + top-degree hubs + epoch
//	GET  /api/search          ?pattern=&type=&label=&module=&dir=&limit=
//	GET  /api/def             ?name=&file=&line=&col=
//	GET  /api/refs            ?name=&type=
//	GET  /api/slice           ?fn=&forward=&depth=
//	GET  /map.svg             ?highlight=<function>
//	POST /api/admin/update    apply an incremental update (when wired)
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/pprof/*       profiling (opt-in via EnablePprof / -pprof)
//
// Each handler pins one engine snapshot for its whole request, so a
// live update swapping the graph mid-request can never make a handler
// mix two graph states.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frappe/internal/codemap"
	"frappe/internal/core"
	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/model"
	"frappe/internal/obs/trace"
	"frappe/internal/plan"
	"frappe/internal/qcache"
	"frappe/internal/query"
	"frappe/internal/store"
	"frappe/internal/traversal"
)

// DefaultMaxConcurrent is the default concurrency-limiter admission cap.
const DefaultMaxConcurrent = 64

// DefaultMaxBodyBytes caps POST request bodies (1 MiB). Query texts are
// a few KB at the outside; anything near the cap is a mistake or abuse,
// and an unbounded decode would buffer it all. Tunable via
// Server.MaxBodyBytes (`frappe serve -max-body-bytes`).
const DefaultMaxBodyBytes = 1 << 20

// DefaultPageSize is the page length a cursor-paginated /api/query uses
// when the request does not choose one.
const DefaultPageSize = 1000

// MaxBatchQueries caps how many queries one /api/query/batch request
// may carry.
const MaxBatchQueries = 64

// MaxSearchLimit caps the ?limit= parameter of /api/search; larger
// requests are clamped rather than allowed to materialise unbounded
// result sets.
const MaxSearchLimit = 10000

// MaxSliceDepth caps the ?depth= parameter of /api/slice. Slices are
// visited-set traversals, so depths beyond the graph's diameter add
// nothing but let a single request walk the whole call graph from a
// dense hub; anything larger than this documented bound is a client
// error (400), mirroring how query budgets fail fast instead of
// serving unbounded work. Depth 0 remains "unbounded up to the budget"
// for compatibility.
const MaxSliceDepth = 64

// Server wraps an engine with HTTP handlers behind a hardened serving
// path: request IDs, panic recovery, concurrency limiting with load
// shedding, and liveness/readiness probes.
type Server struct {
	eng *core.Engine
	mux *http.ServeMux
	// Update, when non-nil, backs POST /api/admin/update: it applies one
	// incremental update against the engine (planning, re-extraction,
	// persistence and the snapshot swap happen behind it) and returns the
	// outcome. Wired by cmd/frappe serve when serving a live tree.
	Update UpdateFunc
	// QueryTimeout bounds each Cypher query (default 30s).
	QueryTimeout time.Duration
	// MaxConcurrent caps in-flight requests (default
	// DefaultMaxConcurrent; set <0 before the first request to disable
	// the limiter).
	MaxConcurrent int
	// RetryAfterSeconds is advertised on shed responses (default 1).
	RetryAfterSeconds int
	// Logf is the legacy printf-style log seam. When set (and Logger is
	// not), every structured log line is rendered "msg key=value ..."
	// through it. Prefer Logger for new code.
	Logf func(format string, args ...any)
	// Logger, when set, receives every server log line (panics, slow
	// requests, write failures) as structured records carrying request
	// and trace correlation attributes. Takes precedence over Logf;
	// defaults to a text handler on stderr.
	Logger *slog.Logger
	// Tracer, when set, roots a trace for every API request and serves
	// the retained ones on GET /api/debug/traces. Nil disables tracing
	// (the middleware is skipped entirely).
	Tracer *trace.Tracer
	// SlowThreshold flags requests slower than this with a log line and
	// the frappe_http_slow_requests_total counter (default
	// DefaultSlowThreshold; set <0 before the first request to disable).
	SlowThreshold time.Duration
	// MaxBodyBytes caps POST request bodies (default DefaultMaxBodyBytes;
	// set <0 to disable the cap). Oversized bodies get 413.
	MaxBodyBytes int64

	chainOnce sync.Once
	handler   http.Handler
	sem       chan struct{}
	logOnce   sync.Once
	slogger   *slog.Logger

	// updateGate serialises admin updates at the HTTP layer: a second
	// POST /api/admin/update while one runs gets 409 + Retry-After
	// immediately (or blocks for its turn with ?wait=true) instead of
	// queueing invisibly on the engine's update lock.
	updateGate sync.Mutex

	reqCounter uint64
	shedCount  int64
	notReady   atomic.Bool

	// The code map cache is keyed by snapshot: a swap invalidates it.
	mapMu     sync.Mutex
	mapSnap   *core.Snapshot
	cachedMap *codemap.Map
}

// UpdateResult is the admin endpoint's report of one update attempt.
type UpdateResult struct {
	// Applied is false for a no-op (nothing changed on disk).
	Applied bool `json:"applied"`
	// Epoch is the live graph's epoch after the attempt.
	Epoch int64 `json:"epoch"`
	// Summary describes the applied update (nil when not applied).
	Summary *core.UpdateSummary `json:"summary,omitempty"`
}

// UpdateFunc applies one incremental update; see Server.Update.
type UpdateFunc func(ctx context.Context) (UpdateResult, error)

// New creates a server over an opened engine.
func New(eng *core.Engine) *Server {
	s := &Server{
		eng:               eng,
		mux:               http.NewServeMux(),
		QueryTimeout:      30 * time.Second,
		MaxConcurrent:     DefaultMaxConcurrent,
		RetryAfterSeconds: 1,
	}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("POST /api/query", s.handleQuery)
	s.mux.HandleFunc("POST /api/query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /api/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/search", s.handleSearch)
	s.mux.HandleFunc("GET /api/def", s.handleDef)
	s.mux.HandleFunc("GET /api/refs", s.handleRefs)
	s.mux.HandleFunc("GET /api/slice", s.handleSlice)
	s.mux.HandleFunc("GET /map.svg", s.handleMap)
	s.mux.HandleFunc("POST /api/admin/update", s.handleUpdate)
	s.mux.HandleFunc("POST /api/admin/verify", s.handleVerify)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/debug/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /api/debug/traces/{id}", s.handleTraceGet)
	return s
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/.
// Off by default — profiling endpoints expose internals and cost CPU —
// and switched on by `frappe serve -pprof`. Call before the first
// request.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler through the middleware chain, built
// once from the Server's settings at the first request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.chainOnce.Do(func() {
		if s.MaxConcurrent == 0 {
			s.MaxConcurrent = DefaultMaxConcurrent
		}
		if s.MaxConcurrent > 0 {
			s.sem = make(chan struct{}, s.MaxConcurrent)
		}
		// Tracing sits outside metrics so the slow-request log line can
		// read the trace ID off the request context.
		s.handler = s.withRequestID(s.withTracing(s.withMetrics(s.withRecover(s.withConcurrencyLimit(s.mux)))))
	})
	s.handler.ServeHTTP(w, r)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Almost always the client disconnecting mid-response. Count it
		// and log at the same level as slow requests — silent drops made
		// partial responses indistinguishable from delivered ones.
		mWriteErrors.Inc()
		s.logger().Warn("response write failed",
			"requestId", w.Header().Get(requestIDHeader),
			"traceId", w.Header().Get(TraceIDHeader),
			"status", status, "err", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON request body under the server's body-size
// cap, answering 413 (oversize) or 400 (malformed) itself. Returns
// false when the request has already been answered.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := s.MaxBodyBytes
	if limit == 0 {
		limit = DefaultMaxBodyBytes
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// requestCtx derives the per-request context every query-shaped handler
// runs under: the client's context (so disconnects cancel work) bounded
// by the server's QueryTimeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.QueryTimeout)
}

// writeQueryErr maps a read-path failure to its HTTP response: an
// expired deadline is the server's fault (504 + timeout counter), store
// corruption is a degraded-mode partial failure (500 + degraded flag),
// anything else keeps the handler's fallback status.
func (s *Server) writeQueryErr(w http.ResponseWriter, ctx context.Context, fallback int, err error) {
	switch {
	case ctx.Err() != nil:
		mQueryTimeouts.Inc()
		s.writeErr(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrTruncated):
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":    err.Error(),
			"degraded": true,
		})
	default:
		s.writeErr(w, fallback, err)
	}
}

// --- endpoints ---

type queryRequest struct {
	Query string `json:"query"`
	// Profile requests per-operator PROFILE tracing alongside the result.
	// PROFILE always bypasses the query cache (a trace of a cache hit
	// would be empty) and instead reports how often this query has been
	// served warm.
	Profile bool `json:"profile,omitempty"`
	// NoCache forces execution even when the result is cached.
	NoCache bool `json:"noCache,omitempty"`
	// Explain includes the planner's EXPLAIN rendering in the response.
	// Unlike Profile it costs nothing at execution time (the plan is
	// compiled either way) and does not bypass the cache.
	Explain bool `json:"explain,omitempty"`
	// Cursor resumes a paginated query from where the previous page left
	// off. The token is opaque to clients; it pins (epoch, query text,
	// offset), and a request whose cursor epoch no longer matches the
	// live snapshot gets 410 Gone (the result it was paging through is
	// retired). With a cursor set, Query may be empty — the token carries
	// the text.
	Cursor string `json:"cursor,omitempty"`
	// PageSize limits the rows returned per response and turns on
	// pagination (default DefaultPageSize when only a cursor is set).
	PageSize int `json:"pageSize,omitempty"`
}

type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Count   int        `json:"count"`
	Millis  float64    `json:"millis"`
	// Cached: served from the query result cache without executing.
	Cached bool `json:"cached"`
	// Shared: coalesced onto a concurrent identical execution.
	Shared bool `json:"shared,omitempty"`
	// CacheHits (PROFILE only): times this query has been served warm.
	CacheHits *int64         `json:"cacheHits,omitempty"`
	Profile   *query.Profile `json:"profile,omitempty"`
	// Plan is the EXPLAIN rendering (present when the request set
	// explain; PROFILE responses carry it inside the profile instead).
	Plan string `json:"plan,omitempty"`
	// NextCursor resumes the next page of a paginated query (absent on
	// the last page and on unpaginated requests). Count stays the full
	// result's row count; Rows carries only the requested page.
	NextCursor string `json:"nextCursor,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Pagination: a cursor resumes (epoch, text, offset) against the
	// pinned snapshot; any page size turns slicing on.
	paginate := req.PageSize > 0 || req.Cursor != ""
	offset := 0
	var cur cursorToken
	if req.Cursor != "" {
		var err error
		cur, err = decodeCursor(req.Cursor)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad cursor: %w", err))
			return
		}
		if req.Query != "" && req.Query != cur.Query {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("cursor was issued for a different query"))
			return
		}
		req.Query, offset = cur.Query, cur.Offset
	}
	if req.PageSize < 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("pageSize must be non-negative"))
		return
	}
	pageSize := req.PageSize
	if paginate && pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if req.Query == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	start := time.Now()
	snap := s.eng.Snapshot()
	epoch, src := snap.Epoch(), snap.Source()
	if req.Cursor != "" && cur.Epoch != epoch {
		// The graph the cursor was paging through has been swapped out;
		// resuming at a row offset against different data would silently
		// mix epochs. 410, not 409: the token can never become valid again.
		s.writeJSON(w, http.StatusGone, map[string]any{
			"error": fmt.Sprintf("cursor epoch %d superseded by %d; restart pagination", cur.Epoch, epoch),
			"epoch": epoch,
		})
		return
	}
	var res *query.Result
	var prof *query.Profile
	var outcome qcache.Outcome
	var cacheHits *int64
	var err error
	switch {
	case req.Profile:
		res, prof, err = snap.QueryProfile(ctx, req.Query, s.eng.QueryLimits)
		hits := s.eng.QueryCacheHits(snap, req.Query)
		cacheHits = &hits
	default:
		res, outcome, err = s.eng.CachedQuery(ctx, snap, req.Query, req.NoCache)
	}
	if err != nil {
		// Store corruption is a server-side fault, never a client error:
		// the query failed only because it touched a quarantined region,
		// and writeQueryErr marks it as a degraded-mode partial failure.
		s.writeQueryErr(w, ctx, http.StatusBadRequest, err)
		return
	}
	resp := queryResponse{
		Columns:   res.Columns,
		Count:     res.Count(),
		Millis:    float64(time.Since(start).Microseconds()) / 1000,
		Cached:    outcome.Hit,
		Shared:    outcome.Shared,
		CacheHits: cacheHits,
		Profile:   prof,
	}
	if req.Explain && !req.Profile {
		if plan, perr := s.eng.ExplainQuery(req.Query); perr == nil {
			resp.Plan = plan
		}
	}
	rows := res.Rows
	if paginate {
		if offset > len(rows) {
			offset = len(rows)
		}
		end := offset + pageSize
		if end > len(rows) {
			end = len(rows)
		}
		if end < len(rows) {
			resp.NextCursor = encodeCursor(cursorToken{Epoch: epoch, Query: req.Query, Offset: end})
		}
		rows = rows[offset:end]
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.Format(src)
		}
		resp.Rows = append(resp.Rows, cells)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type statsResponse struct {
	Nodes      int64               `json:"nodes"`
	Edges      int64               `json:"edges"`
	Density    float64             `json:"density"`
	Epoch      int64               `json:"epoch"`
	LastUpdate *core.UpdateSummary `json:"lastUpdate,omitempty"`
	Hubs       []hub               `json:"hubs"`
	// Cache holds the page-cache counters by store file (absent for
	// in-memory engines), so the console can show hit ratios without
	// scraping /metrics.
	Cache map[string]store.CacheStats `json:"cache,omitempty"`
	// Query is the executor's counter snapshot (budget pressure, rows).
	Query query.Counters `json:"query"`
	// QCache is the query-cache counter snapshot (absent when the engine
	// serves without a cache).
	QCache *qcache.Stats `json:"qcache,omitempty"`
	// Planner is the query planner's counter snapshot (closure rewrites,
	// fallback plans, statistics rebuilds).
	Planner plan.Counters `json:"planner"`
	// GraphStats is the planner's per-snapshot statistics summary
	// (absent when computing it would touch quarantined pages).
	GraphStats *gstats.Stats `json:"graphStats,omitempty"`
	// Shed counts requests dropped by the concurrency limiter.
	Shed int64 `json:"shed"`
	// Degraded reports quarantined store pages: the server answers
	// queries that avoid them and fails the rest (see /api/admin/verify).
	Degraded bool `json:"degraded,omitempty"`
	// QuarantinedPages lists quarantined page numbers by store file
	// (present only when degraded).
	QuarantinedPages map[string][]int64 `json:"quarantinedPages,omitempty"`
}

type hub struct {
	Type   string `json:"type"`
	Name   string `json:"name"`
	Degree int    `json:"degree"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	m := snap.Stats()
	resp := statsResponse{
		Nodes: m.Nodes, Edges: m.Edges, Density: m.Density,
		Epoch: snap.Epoch(), LastUpdate: snap.LastUpdate(),
		Cache:  s.eng.CacheStats(),
		Query:  query.CountersSnapshot(),
		QCache: s.eng.QueryCacheStats(),
		Shed:   s.ShedCount(),
	}
	if s.eng.Degraded() {
		resp.Degraded = true
		resp.QuarantinedPages = s.eng.QuarantinedPages()
	}
	pc := plan.CountersSnapshot()
	pc.StatsRebuilds = gstats.Rebuilds()
	resp.Planner = pc
	// GraphStats degrades to nil itself when collection would touch
	// quarantined pages, so no recover guard is needed here.
	resp.GraphStats = snap.GraphStats()
	resp.Hubs = safeHubs(snap.Source())
	s.writeJSON(w, http.StatusOK, resp)
}

// safeHubs computes the top-degree hubs best-effort: the full edge scan
// behind it can hit a quarantined page, and stats must stay servable in
// degraded mode, so corruption-class panics degrade to an empty hub list
// while everything else still propagates.
func safeHubs(src graph.Source) (hubs []hub) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || (!errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrTruncated)) {
				panic(r)
			}
			hubs = nil
		}
	}()
	for _, h := range graph.TopDegreeNodes(src, 10) {
		hubs = append(hubs, hub{Type: string(h.Type), Name: h.Name, Degree: h.Degree})
	}
	return hubs
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.Update == nil {
		s.writeErr(w, http.StatusNotImplemented, fmt.Errorf("server has no update source (started from a static store)"))
		return
	}
	wait := r.URL.Query().Get("wait") == "true" || r.URL.Query().Get("wait") == "1"
	if wait {
		s.updateGate.Lock()
	} else if !s.updateGate.TryLock() {
		mUpdateConflicts.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds))
		s.writeJSON(w, http.StatusConflict, map[string]string{
			"error": "an update is already in flight; retry later or pass ?wait=true",
		})
		return
	}
	defer s.updateGate.Unlock()
	res, err := s.Update(r.Context())
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleVerify is the admin re-verify/heal endpoint for degraded mode:
// it retries every quarantined page (pages recover only if the on-disk
// bytes were repaired underneath the server) and reports the before and
// after state.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	before := 0
	for _, pages := range s.eng.QuarantinedPages() {
		before += len(pages)
	}
	healed, remaining := s.eng.Heal()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"quarantinedBefore": before,
		"healed":            healed,
		"quarantinedAfter":  remaining,
		"degraded":          s.eng.Degraded(),
	})
}

type symbolJSON struct {
	ID        int64  `json:"id"`
	Type      string `json:"type"`
	ShortName string `json:"shortName"`
	Name      string `json:"name,omitempty"`
	LongName  string `json:"longName,omitempty"`
	File      string `json:"file,omitempty"`
	Line      int    `json:"line,omitempty"`
	Col       int    `json:"col,omitempty"`
}

func toSymbolJSON(s core.Symbol) symbolJSON {
	return symbolJSON{
		ID: int64(s.ID), Type: string(s.Type), ShortName: s.ShortName,
		Name: s.Name, LongName: s.LongName, File: s.File, Line: s.Line, Col: s.Col,
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := core.SearchOptions{
		Pattern: q.Get("pattern"),
		Label:   q.Get("label"),
		Module:  q.Get("module"),
		Dir:     q.Get("dir"),
		Limit:   100,
	}
	if t := q.Get("type"); t != "" {
		opts.Types = []model.NodeType{model.NodeType(t)}
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 1 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", l))
			return
		}
		if n > MaxSearchLimit {
			n = MaxSearchLimit
		}
		opts.Limit = n
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	syms, err := s.eng.Snapshot().Search(ctx, opts)
	if err != nil {
		s.writeQueryErr(w, ctx, http.StatusBadRequest, err)
		return
	}
	out := make([]symbolJSON, len(syms))
	for i, sym := range syms {
		out[i] = toSymbolJSON(sym)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"results": out, "count": len(out)})
}

func (s *Server) handleDef(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	line, err1 := strconv.Atoi(q.Get("line"))
	col, err2 := strconv.Atoi(q.Get("col"))
	if q.Get("name") == "" || q.Get("file") == "" || err1 != nil || err2 != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("need name, file, line, col"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	sym, ok, err := s.eng.Snapshot().GoToDefinition(ctx, q.Get("name"), q.Get("file"), line, col)
	if err != nil {
		s.writeQueryErr(w, ctx, http.StatusBadRequest, err)
		return
	}
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("no definition at %s:%d:%d", q.Get("file"), line, col))
		return
	}
	s.writeJSON(w, http.StatusOK, toSymbolJSON(sym))
}

func (s *Server) handleRefs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap := s.eng.Snapshot()
	id, err := snap.MustLookupOne(q.Get("name"), model.NodeType(q.Get("type")))
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	refs, err := snap.FindReferences(ctx, id)
	if err != nil {
		s.writeQueryErr(w, ctx, http.StatusInternalServerError, err)
		return
	}
	type refJSON struct {
		Kind string `json:"kind"`
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		From string `json:"from"`
	}
	out := make([]refJSON, len(refs))
	for i, ref := range refs {
		out[i] = refJSON{Kind: string(ref.Kind), File: ref.File, Line: ref.Line, Col: ref.Col, From: ref.From.ShortName}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"references": out, "count": len(out)})
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap := s.eng.Snapshot()
	id, err := snap.MustLookupOne(q.Get("fn"), model.NodeFunction)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	depth := 0
	if d := q.Get("depth"); d != "" {
		if depth, err = strconv.Atoi(d); err != nil || depth < 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad depth %q", d))
			return
		}
		if depth > MaxSliceDepth {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("depth %d exceeds maximum %d", depth, MaxSliceDepth))
			return
		}
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var syms []core.Symbol
	if q.Get("forward") == "true" || q.Get("forward") == "1" {
		syms, err = snap.ForwardSliceCtx(ctx, id, depth)
	} else {
		syms, err = snap.BackwardSliceCtx(ctx, id, depth)
	}
	if err != nil {
		s.writeQueryErr(w, ctx, http.StatusInternalServerError, err)
		return
	}
	out := make([]symbolJSON, len(syms))
	for i, sym := range syms {
		out[i] = toSymbolJSON(sym)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"functions": out, "count": len(out)})
}

// codeMap builds the code map for the given snapshot, caching it per
// snapshot: each graph state is immutable, so the map only needs
// rebuilding after an incremental update swaps the snapshot.
func (s *Server) codeMap(snap *core.Snapshot) *codemap.Map {
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	if s.mapSnap != snap {
		s.cachedMap = codemap.Build(snap.Source())
		s.mapSnap = snap
	}
	return s.cachedMap
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	snap := s.eng.Snapshot()
	m := s.codeMap(snap)
	opts := codemap.RenderOptions{Width: 1280, Height: 900, Title: "Frappé code map"}
	if h := r.URL.Query().Get("highlight"); h != "" {
		id, err := snap.MustLookupOne(h, model.NodeFunction)
		if err != nil {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		opts.Highlight = append(traversal.TransitiveClosure(snap.Source(), id, traversal.Options{
			Direction: traversal.Out,
			Types:     traversal.Types(model.EdgeCalls),
		}), id)
		opts.Title = "Backward slice of " + h
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, m.SVG(opts))
}

const consoleHTML = `<!DOCTYPE html>
<html><head><title>Frappé</title><style>
body { font-family: sans-serif; margin: 2em; max-width: 72em; }
textarea { width: 100%%; height: 8em; font-family: monospace; }
table { border-collapse: collapse; margin-top: 1em; }
td, th { border: 1px solid #999; padding: 4px 8px; font-family: monospace; }
.meta { color: #666; margin-top: .5em; }
</style></head><body>
<h1>Frappé query console</h1>
<p>%d nodes, %d edges. Try:
<code>START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls]-> m RETURN m.short_name</code></p>
<textarea id="q">MATCH (n:module) RETURN n.short_name</textarea><br>
<button onclick="run()">Run</button>
<div class="meta" id="meta"></div>
<div id="out"></div>
<script>
async function run() {
  const r = await fetch('/api/query', {method: 'POST',
    body: JSON.stringify({query: document.getElementById('q').value})});
  const j = await r.json();
  const out = document.getElementById('out');
  if (j.error) { out.textContent = j.error; return; }
  document.getElementById('meta').textContent = j.count + ' rows in ' + j.millis + ' ms';
  const esc = c => String(c).replace(/&/g,'&amp;').replace(/</g,'&lt;').replace(/>/g,'&gt;');
  let html = '<table><tr>' + j.columns.map(c => '<th>'+esc(c)+'</th>').join('') + '</tr>';
  for (const row of j.rows || [])
    html += '<tr>' + row.map(c => '<td>'+esc(c)+'</td>').join('') + '</tr>';
  out.innerHTML = html + '</table>';
}
</script></body></html>`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Stats()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, consoleHTML, m.Nodes, m.Edges)
}
