// Streaming and bulk query surfaces: POST /api/query/stream emits one
// result as NDJSON — a header object with the columns, one object per
// row, and a terminal object with the outcome — flushing each chunk so
// a client sees rows while the executor is still running and the server
// never holds the whole result. POST /api/query/batch runs N queries in
// one round trip against one pinned snapshot with per-query error
// isolation. Both exist for result sets and workloads the materialized
// /api/query response shape handles badly: Fig-6-scale closures and
// agent-style query bursts.
package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"frappe/internal/obs/trace"
	"frappe/internal/query"
	"frappe/internal/store"
)

// cursorToken is the decoded form of /api/query's opaque cursor: the
// snapshot epoch the pagination started against, the query text, and
// the row offset of the next page. Clients must treat the encoded form
// as opaque — the format is not API.
type cursorToken struct {
	Epoch  int64  `json:"e"`
	Query  string `json:"q"`
	Offset int    `json:"o"`
}

func encodeCursor(t cursorToken) string {
	b, _ := json.Marshal(t)
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeCursor(s string) (cursorToken, error) {
	var t cursorToken
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, err
	}
	if t.Query == "" || t.Offset < 0 {
		return t, fmt.Errorf("malformed token")
	}
	return t, nil
}

// streamHeader is the first NDJSON line: the result shape.
type streamHeader struct {
	Columns []string `json:"columns"`
	// Cached: rows are replayed from the query result cache.
	Cached bool  `json:"cached,omitempty"`
	Epoch  int64 `json:"epoch"`
}

// streamRowObj is one NDJSON row line.
type streamRowObj struct {
	Row []string `json:"row"`
}

// streamTerminal is the last NDJSON line: how the stream ended. A
// stream that aborts (budget, timeout, disconnect upstream) still gets
// a terminal object when the connection allows it, so clients can
// distinguish "complete" from "truncated".
type streamTerminal struct {
	Count  int64   `json:"count"`
	Steps  int64   `json:"steps"`
	Millis float64 `json:"millis"`
	Cached bool    `json:"cached,omitempty"`
	// Streamed is false for a cache replay and for a query with a
	// blocking stage (ORDER BY, aggregation), which holds that stage's
	// input in memory.
	Streamed bool   `json:"streamed"`
	Error    string `json:"error,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// TraceID keys the stream's retained trace in /api/debug/traces; an
	// NDJSON consumer that saw a truncated stream can fetch the span tree
	// without having captured the response headers.
	TraceID string `json:"traceId,omitempty"`
}

// countingWriter feeds frappe_stream_bytes_total.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.w.Write(b)
	cw.n += int64(n)
	return n, err
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
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
	// Pager attribution brackets the whole stream: the executor reads
	// pages lazily, so the delta is only meaningful after st.Wait().
	pager := snap.PagerSpan(ctx)
	defer pager()
	st, outcome, err := s.eng.StreamQuery(ctx, snap, req.Query, 0)
	if err != nil {
		// Parse/compile failures surface synchronously, before the
		// response commits to NDJSON, so clients still get a plain 400.
		s.writeQueryErr(w, ctx, http.StatusBadRequest, err)
		return
	}
	cols, err := st.Columns(ctx)
	if err != nil {
		s.writeQueryErr(w, ctx, http.StatusBadRequest, err)
		return
	}

	mStreamsInFlight.Add(1)
	defer mStreamsInFlight.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w}
	defer func() { mStreamBytes.Add(cw.n) }()
	enc := json.NewEncoder(cw) // Encode appends \n: one value per line
	writeFailed := false
	writeChunk := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			// The client went away mid-stream. Count the write failure,
			// cancel the executor, and stop — there is nobody to tell.
			mWriteErrors.Inc()
			writeFailed = true
			s.reqLog(r, w.Header()).Warn("stream write failed",
				"path", r.URL.Path, "err", err)
			cancel()
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var sent int64
	if writeChunk(streamHeader{Columns: cols, Cached: outcome.Hit, Epoch: epoch}) {
		for row := range st.Rows() {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Format(src)
			}
			if !writeChunk(streamRowObj{Row: cells}) {
				break
			}
			sent++
			mStreamRows.Inc()
		}
	}
	// Drain so the producer (which selects on ctx.Done) finishes promptly
	// even when the write loop bailed out early.
	for range st.Rows() {
	}
	_, steps, execErr := st.Wait()

	// A client that hangs up cancels r.Context(), which stops the
	// executor; the rows it had already produced can still land in the
	// response buffer without any Encode failing. Either way the stream
	// ended because nobody is listening: count one write error and one
	// abort, and write no terminal line.
	if writeFailed || r.Context().Err() != nil {
		if !writeFailed {
			mWriteErrors.Inc()
		}
		mStreamAborts.Inc()
		return
	}

	term := streamTerminal{
		Count:    sent,
		Steps:    steps,
		Millis:   float64(time.Since(start).Microseconds()) / 1000,
		Cached:   outcome.Hit,
		Streamed: st.Pipelined(),
		TraceID:  trace.FromContext(ctx).TraceID(),
	}
	if execErr != nil {
		term.Error = execErr.Error()
		// The HTTP status is already 200 (the stream committed), so the
		// root span never sees a 5xx; mark the failure on it here or the
		// tail sampler would treat a truncated stream as unremarkable.
		sp := trace.FromContext(ctx)
		sp.SetError(execErr)
		if errors.Is(execErr, store.ErrCorrupt) || errors.Is(execErr, store.ErrTruncated) {
			term.Degraded = true
			sp.Retain("degraded")
		} else if errors.Is(execErr, query.ErrBudgetExceeded) {
			sp.Retain("budget")
		}
		if ctx.Err() != nil {
			// The server's own deadline expired (the client is still
			// connected): same counter the materialized path's 504
			// increments.
			mQueryTimeouts.Inc()
		}
	}
	if !writeChunk(term) || execErr != nil {
		mStreamAborts.Inc()
	}
}

// batchRequest runs several queries in one round trip. Every query in
// the batch executes against the same pinned snapshot, so a live update
// mid-batch can never make entry 3 disagree with entry 1.
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

// batchEntry is one query's outcome. Error is set instead of the result
// fields when that query failed; other entries are unaffected.
type batchEntry struct {
	Columns  []string   `json:"columns,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Count    int        `json:"count"`
	Millis   float64    `json:"millis"`
	Cached   bool       `json:"cached,omitempty"`
	Shared   bool       `json:"shared,omitempty"`
	Error    string     `json:"error,omitempty"`
	Degraded bool       `json:"degraded,omitempty"`
	// TraceID keys the batch's retained trace (shared by every entry;
	// each entry is a batch.entry child span indexed within it).
	TraceID string `json:"traceId,omitempty"`
}

type batchResponse struct {
	Epoch   int64        `json:"epoch"`
	Millis  float64      `json:"millis"`
	Results []batchEntry `json:"results"`
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds maximum %d", len(req.Queries), MaxBatchQueries))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	batchStart := time.Now()
	snap := s.eng.Snapshot() // one pin shared by every execution
	src := snap.Source()
	out := batchResponse{Epoch: snap.Epoch(), Results: make([]batchEntry, len(req.Queries))}
	sp := trace.FromContext(ctx)
	for i, q := range req.Queries {
		ent := &out.Results[i]
		ent.TraceID = sp.TraceID()
		if q.Query == "" {
			ent.Error = "empty query"
			continue
		}
		// Each entry gets its own child span so a slow batch attributes
		// its time to the query that spent it, not the batch as a whole.
		esp := sp.Child("batch.entry", trace.Int("index", int64(i)))
		entCtx := trace.ContextWith(ctx, esp)
		start := time.Now()
		res, outcome, err := s.eng.CachedQuery(entCtx, snap, q.Query, q.NoCache)
		ent.Millis = float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			esp.SetError(err)
		}
		esp.End()
		if err != nil {
			// Per-query isolation: this entry reports its failure, the
			// rest of the batch still runs (a timeout will fail the
			// remaining entries fast with the same context error).
			ent.Error = err.Error()
			ent.Degraded = errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrTruncated)
			continue
		}
		ent.Columns = res.Columns
		ent.Count = res.Count()
		ent.Cached = outcome.Hit
		ent.Shared = outcome.Shared
		ent.Rows = make([][]string, len(res.Rows))
		for j, row := range res.Rows {
			cells := make([]string, len(row))
			for k, v := range row {
				cells[k] = v.Format(src)
			}
			ent.Rows[j] = cells
		}
	}
	out.Millis = float64(time.Since(batchStart).Microseconds()) / 1000
	s.writeJSON(w, http.StatusOK, out)
}
