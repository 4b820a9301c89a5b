package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"frappe/internal/core"
	"frappe/internal/delta"
	"frappe/internal/kernelgen"
	"frappe/internal/store"
)

// TestMixedTrafficDuringDiskUpdates serves a disk store to two query
// clients and a /metrics scraper while live updates re-extract the
// edited unit, persist a new epoch, reopen the store and republish it.
// No request may fail with a 5xx, every update must apply, and each
// client must see epochs in order. Run with -race.
func TestMixedTrafficDuringDiskUpdates(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	sess, res, err := delta.NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := delta.PersistIndex(dir, sess, res.Graph, delta.Record{Epoch: sess.Manifest().Epoch}); err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.SetEpoch(sess.Manifest().Epoch, nil)
	srv := New(eng)
	srv.Logf = t.Logf
	seq := 0
	srv.Update = func(context.Context) (UpdateResult, error) {
		seq++
		unit := w.Build.Units[0].Source
		w.FS[unit] += fmt.Sprintf("\nint live_added_%d(int v)\n{\n\treturn v + %d;\n}\n", seq, seq)
		up, err := sess.Update(w.Build, eng.Snapshot().Source())
		if err != nil {
			return UpdateResult{}, err
		}
		if err := delta.PersistUpdate(dir, sess, up.Result.Graph, delta.Record{Epoch: up.Epoch, FilesModified: 1}); err != nil {
			return UpdateResult{}, err
		}
		db, err := store.OpenOptions(dir, store.Options{})
		if err != nil {
			return UpdateResult{}, err
		}
		eng.SwapSource(db, up.Epoch, nil)
		return UpdateResult{Applied: true, Epoch: up.Epoch}, nil
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var queries, scrapes atomic.Int64
	get := func(req *http.Request) (int, []byte) {
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 500 {
			t.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, body)
		}
		return resp.StatusCode, body
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A one-row page carries a cursor naming the epoch the
				// query ran against.
				req, _ := http.NewRequest("POST", ts.URL+"/api/query",
					strings.NewReader(`{"query": "MATCH (n:function) RETURN n.short_name", "pageSize": 1}`))
				code, body := get(req)
				var out queryResponse
				if code != http.StatusOK || json.Unmarshal(body, &out) != nil {
					t.Errorf("query: %d %s", code, body)
					return
				}
				cur, err := decodeCursor(out.NextCursor)
				if err != nil {
					t.Errorf("cursor: %v", err)
					return
				}
				if cur.Epoch < last {
					t.Errorf("client saw epoch %d after %d", cur.Epoch, last)
				}
				last = cur.Epoch
				queries.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
			if code, _ := get(req); code == http.StatusOK {
				scrapes.Add(1)
			}
		}
	}()

	const updates = 4
	for i := 1; i <= updates; i++ {
		req, _ := http.NewRequest("POST", ts.URL+"/api/admin/update?wait=true", nil)
		code, body := get(req)
		var out UpdateResult
		if code != http.StatusOK || json.Unmarshal(body, &out) != nil || !out.Applied || out.Epoch != int64(i) {
			t.Errorf("update %d: %d %s", i, code, body)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d queries and %d scrapes during %d updates", queries.Load(), scrapes.Load(), updates)
	if queries.Load() == 0 || scrapes.Load() == 0 {
		t.Fatalf("traffic did not overlap the updates: %d queries, %d scrapes", queries.Load(), scrapes.Load())
	}
	if ids, err := eng.LookupNamed(fmt.Sprintf("live_added_%d", updates), "function"); err != nil || len(ids) != 1 {
		t.Fatalf("last update not served: %v %v", ids, err)
	}
}
