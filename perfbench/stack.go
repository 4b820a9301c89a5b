package main

import (
	"context"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"frappe/internal/core"
	"frappe/internal/delta"
	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/kernelgen"
	"frappe/internal/obs/trace"
	"frappe/internal/qcache"
	"frappe/internal/query"
	"frappe/internal/server"
)

// limits are frappe serve's default -max-rows and -max-steps.
var limits = query.Limits{MaxRows: 1_000_000, MaxSteps: 50_000_000}

// stack is one serving stack wired the way frappe serve wires it: an
// incremental-extraction session, its persisted store, an engine, and
// internal/server behind an httptest listener on loopback.
type stack struct {
	dir  string
	w    *kernelgen.Workload
	opts extract.Options
	// sess is the extraction session; nil while a disk-served stack runs
	// without one, as frappe serve -db does.
	sess *delta.Session
	eng  *core.Engine
	ts   *httptest.Server
	rec  *recorder
	// graph is the freshly extracted graph, kept only until the harness
	// has read its corpus from it.
	graph *graph.Graph

	// fsMu orders the editor's writes to w.FS before the update path's
	// reads of it.
	fsMu sync.Mutex
	// editSpan is the editor's open span, the parent of the update
	// spans the server-side update path records.
	editSpan atomic.Int64

	mu      sync.Mutex
	reext   []float64 // units re-extracted per applied update
	written []float64 // store bytes rewritten per applied update (traced runs)
}

// discardHandler drops every log record: the benchmark measures the
// serving path, not a log sink.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// newStack indexes w into dir and starts serving it: from the in-memory
// graph (live mode, frappe serve -gen/-src) or, with disk, from the
// persisted store through the pager (frappe serve -db). Either way POST
// /api/admin/update applies edits through Engine.UpdateWith, as live
// mode does.
func newStack(w *kernelgen.Workload, dir string, disk bool, rec *recorder) (*stack, error) {
	st := &stack{dir: dir, w: w, opts: w.ExtractOptions(), rec: rec}
	st.opts.Jobs = -1 // frappe serve's default -j: one frontend worker per CPU
	root := rec.begin("setup", 0)
	defer rec.end(root)

	sp := rec.begin("extract.index", root)
	sess, res, err := delta.NewSession(w.Build, st.opts)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if len(res.Errors) > 0 {
		return nil, fmt.Errorf("index: %d extraction errors, first: %v", len(res.Errors), res.Errors[0])
	}
	st.sess, st.graph = sess, res.Graph
	sp = rec.begin("delta.persist_index", root)
	err = delta.PersistIndex(dir, sess, res.Graph, delta.Record{
		Epoch:      sess.Manifest().Epoch,
		Time:       time.Now().UTC().Format(time.RFC3339),
		FilesAdded: len(sess.Manifest().Files),
		NodeCount:  res.Graph.NodeCount(),
		EdgeCount:  res.Graph.EdgeCount(),
	})
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("persist index: %w", err)
	}
	if disk {
		// Like frappe index followed by frappe serve -db: the server
		// holds no extraction session.
		st.sess = nil
		sp = rec.begin("store.open", root)
		st.eng, err = core.Open(dir)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	} else {
		sp = rec.begin("core.from_graph", root)
		st.eng = core.FromGraph(res.Graph)
		rec.end(sp)
	}

	sp = rec.begin("server.start", root)
	st.eng.QueryLimits = limits
	srv := server.New(st.eng)
	srv.Update = server.WithRetry(st.update, 3, 500*time.Millisecond, func(string, ...any) {})
	st.eng.SetQueryCache(qcache.New(qcache.Config{MaxBytes: 64 << 20, MaxEntries: qcache.DefaultMaxEntries}))
	srv.SlowThreshold = server.DefaultSlowThreshold
	srv.Logger = slog.New(discardHandler{})
	srv.Tracer = trace.New(trace.Config{Capacity: 256, SampleRate: trace.DefaultSampleRate, SlowThreshold: srv.SlowThreshold})
	if !disk {
		// Live mode catches up with the tree before it accepts traffic.
		if _, err := srv.Update(context.Background()); err != nil {
			st.eng.Close()
			return nil, fmt.Errorf("catch-up update: %w", err)
		}
	}
	st.ts = httptest.NewServer(srv)
	rec.end(sp)
	return st, nil
}

// resume reloads the extraction session of a stack served without one
// from the state PersistIndex stored beside the store, as a restarted
// live server does; a no-op when the session is live.
func (st *stack) resume() error {
	st.fsMu.Lock()
	defer st.fsMu.Unlock()
	if st.sess != nil {
		return nil
	}
	sess, err := delta.Resume(st.dir, st.opts)
	if err != nil {
		return fmt.Errorf("resuming the extraction session: %w", err)
	}
	st.sess = sess
	return nil
}

// close stops the listener (waiting for in-flight requests), closes the
// engine and removes the store.
func (st *stack) close() error {
	if st.ts != nil {
		st.ts.Close()
	}
	err := st.eng.Close()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// update is the server's update function, the same calls frappe serve
// makes in live mode: plan and re-extract the edited units, persist the
// new epoch as one commit, then publish it.
func (st *stack) update(ctx context.Context) (server.UpdateResult, error) {
	var result server.UpdateResult
	// Only updates an edit asked for are traced; live mode's start-up
	// catch-up is part of set-up.
	edit := int(st.editSpan.Load())
	rec := st.rec
	if edit == 0 {
		rec = nil
	}
	root := rec.begin("core.update_with", edit)
	defer rec.end(root)
	_, err := st.eng.UpdateWith(func(old graph.Source) (*graph.Graph, int64, *core.UpdateSummary, error) {
		cb := rec.begin("update.callback", root)
		defer rec.end(cb)
		start := time.Now()
		st.fsMu.Lock()
		sp := rec.begin("delta.update", cb)
		up, err := st.sess.Update(st.w.Build, old)
		rec.end(sp)
		st.fsMu.Unlock()
		if err != nil {
			return nil, 0, nil, err
		}
		if up.NoOp {
			result = server.UpdateResult{Epoch: up.Epoch}
			return nil, 0, nil, nil
		}
		sum := &core.UpdateSummary{
			Epoch:            up.Epoch,
			Time:             time.Now().UTC().Format(time.RFC3339),
			FilesModified:    len(up.Plan.Modified),
			UnitsReextracted: up.Reextracted,
			NodesAdded:       up.Diff.NodesAdded,
			NodesRemoved:     up.Diff.NodesRemoved,
			EdgesAdded:       up.Diff.EdgesAdded,
			EdgesRemoved:     up.Diff.EdgesRemoved,
			WallMillis:       ms(time.Since(start)),
		}
		persistStart := time.Now()
		sp = rec.begin("delta.persist", cb)
		err = delta.PersistUpdate(st.dir, st.sess, up.Result.Graph, delta.Record{
			Epoch:            sum.Epoch,
			Time:             sum.Time,
			FilesModified:    sum.FilesModified,
			UnitsReextracted: sum.UnitsReextracted,
			NodesAdded:       sum.NodesAdded,
			NodesRemoved:     sum.NodesRemoved,
			EdgesAdded:       sum.EdgesAdded,
			EdgesRemoved:     sum.EdgesRemoved,
			WallMillis:       sum.WallMillis,
			NodeCount:        up.Result.Graph.NodeCount(),
			EdgeCount:        up.Result.Graph.EdgeCount(),
		})
		rec.end(sp)
		if err != nil {
			return nil, 0, nil, err
		}
		st.mu.Lock()
		st.reext = append(st.reext, float64(up.Reextracted))
		if rec != nil {
			// The commit has just been published, so the walk cannot
			// race a rename; an error would show as a short count.
			n, _ := dirBytes(st.dir, persistStart)
			st.written = append(st.written, float64(n))
		}
		st.mu.Unlock()
		result = server.UpdateResult{Applied: true, Epoch: up.Epoch, Summary: sum}
		return up.Result.Graph, up.Epoch, sum, nil
	})
	return result, err
}

// dirBytes sums the sizes of the files under dir modified at or after
// since; the zero time counts every file.
func dirBytes(dir string, since time.Time) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if !info.ModTime().Before(since) {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// applyEdits makes each edit to the source tree, asks the server to
// update, and reads the edited function back at the new epoch. It
// returns each edit's edit-to-visible time in milliseconds.
func (st *stack) applyEdits(ctx context.Context, c *client, es []edit) ([]float64, error) {
	var lat []float64
	epoch := st.eng.Epoch()
	for _, e := range es {
		st.fsMu.Lock()
		st.w.FS[e.Unit] += e.Body
		st.fsMu.Unlock()
		start := time.Now()
		id := st.rec.begin("edit", 0)
		st.editSpan.Store(int64(id))
		applied, got, err := c.update(ctx)
		if err != nil {
			return lat, fmt.Errorf("edit %s: %w", e.Func, err)
		}
		if !applied || got != epoch+1 {
			return lat, fmt.Errorf("edit %s: applied=%v at epoch %d, want epoch %d", e.Func, applied, got, epoch+1)
		}
		epoch = got
		sp := st.rec.begin("edit.read", id)
		a, err := c.query(ctx, request{Text: probeQuery(e.Func), Rows: 1}, false, true)
		st.rec.end(sp)
		if err != nil {
			return lat, fmt.Errorf("reading back %s: %w", e.Func, err)
		}
		if len(a.Rows) != 1 || len(a.Rows[0]) != 1 || a.Rows[0][0] != `"`+e.Func+`"` {
			return lat, fmt.Errorf("reading back %s at epoch %d: got %v", e.Func, epoch, a.Rows)
		}
		st.rec.end(id)
		st.editSpan.Store(0)
		lat = append(lat, ms(time.Since(start)))
	}
	return lat, nil
}
