package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// generator yields a client's requests in a fixed order for a seed.
type generator interface {
	next() (request, error)
}

// timed is one completed request as the load generator saw it.
type timed struct {
	Kind kind
	Lat  time.Duration
}

// sampled is a response kept for the after-run digest check.
type sampled struct {
	Text   string
	Rows   int
	Digest uint64
}

// loadResult is what one or more load goroutines observed.
type loadResult struct {
	Done      []timed
	Late      []time.Duration // how far behind schedule each send was
	Bytes     int64           // response bytes read
	Attempted int
	Failed    int
	Server5xx int
	Errors    []string // the first few failures, for the report
	Sampled   []sampled
	Elapsed   time.Duration
}

func (r *loadResult) merge(o loadResult) {
	r.Done = append(r.Done, o.Done...)
	r.Late = append(r.Late, o.Late...)
	r.Bytes += o.Bytes
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Server5xx += o.Server5xx
	r.Errors = append(r.Errors, o.Errors...)
	r.Sampled = append(r.Sampled, o.Sampled...)
	if o.Elapsed > r.Elapsed {
		r.Elapsed = o.Elapsed
	}
}

// send issues q and records its outcome; lat is measured from from to
// the end of the round trip, not counting the check of the body. With
// full the answer's rows are decoded. It reports whether the request
// succeeded.
func (r *loadResult) send(ctx context.Context, c *client, q request, from time.Time, full bool, rec *recorder, parent int) (answer, bool) {
	r.Attempted++
	a, err := c.query(ctx, q, false, full)
	end := a.End
	rec.add("http."+q.Kind.String(), parent, from, end)
	if err == nil && q.Rows >= 0 && a.N != q.Rows {
		err = fmt.Errorf("%d rows, want %d", a.N, q.Rows)
	}
	if err != nil {
		if ctx.Err() != nil {
			r.Attempted-- // interrupted, not failed: the run is abandoned anyway
			return a, false
		}
		r.Failed++
		if se := (*statusError)(nil); errors.As(err, &se) && se.status >= 500 {
			r.Server5xx++
		}
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, fmt.Sprintf("%.60q: %v", q.Text, err))
		}
		return a, false
	}
	r.Bytes += int64(a.Bytes)
	r.Done = append(r.Done, timed{q.Kind, end.Sub(from)})
	return a, true
}

// closedLoop runs one client per generator; each sends its next request
// as soon as the previous one completes, until the deadline. With
// sampleEvery > 0, each client keeps about one response in sampleEvery
// for the digest check, chosen by a seeded draw made before the request.
func closedLoop(ctx context.Context, c *client, gens []generator, d time.Duration, seed int64, sampleEvery int, rec *recorder) loadResult {
	start := time.Now()
	deadline := start.Add(d)
	results := make([]loadResult, len(gens))
	var wg sync.WaitGroup
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			r := &results[i]
			pick := rand.New(rand.NewSource(seed*131 + int64(i)))
			root := rec.begin("loadgen.client", 0)
			defer rec.end(root)
			prev := time.Now()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				q, err := g.next()
				if err != nil {
					r.Attempted++
					r.Failed++
					r.Errors = append(r.Errors, err.Error())
					return
				}
				keep := sampleEvery > 0 && pick.Intn(sampleEvery) == 0 && len(r.Sampled) < 64
				t0 := time.Now()
				r.Late = append(r.Late, t0.Sub(prev))
				a, ok := r.send(ctx, c, q, t0, keep, rec, root)
				prev = a.End
				if ok && keep {
					r.Sampled = append(r.Sampled, sampled{q.Text, a.N, a.Digest})
				}
			}
			r.Elapsed = time.Since(start)
		}(i, g)
	}
	wg.Wait()
	var out loadResult
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// openLoop sends g's requests on one connection at a fixed rate until
// stop is closed. Each request is timed from when it was due, so a stall
// that holds up later sends is charged to them too (no coordinated
// omission); Late records how far behind schedule each send went out.
func openLoop(ctx context.Context, c *client, g generator, rate float64, stop <-chan struct{}, rec *recorder) loadResult {
	var r loadResult
	start := time.Now()
	root := rec.begin("loadgen.reader", 0)
	defer rec.end(root)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-stop:
				r.Elapsed = time.Since(start)
				return r
			case <-ctx.Done():
				return r
			}
		}
		select {
		case <-stop:
			r.Elapsed = time.Since(start)
			return r
		case <-ctx.Done():
			return r
		default:
		}
		q, err := g.next()
		if err != nil {
			r.Attempted++
			r.Failed++
			r.Errors = append(r.Errors, err.Error())
			return r
		}
		r.Late = append(r.Late, time.Since(due))
		r.send(ctx, c, q, due, false, rec, root)
	}
}
