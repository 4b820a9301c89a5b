package query

import (
	"context"

	"frappe/internal/graph"
	"frappe/internal/obs/trace"
)

// DefaultStreamDepth is the bounded-channel depth a Stream uses when
// the caller passes depth <= 0. It bounds how far the executor can run
// ahead of a slow consumer.
const DefaultStreamDepth = 64

// Stream is one streamed execution's consumer handle: the output
// columns, a bounded row channel, and the terminal state (row count,
// steps, error) available once the channel closes. The producer never
// outlives the context: cancel it and drain Rows (or call Wait) to
// release the goroutine. Rows received from the channel are in column
// order and must be treated as read-only when the stream replays a
// shared cached result.
type Stream struct {
	rows      chan []Val
	done      chan struct{}
	colsCh    chan struct{}
	cols      []string
	count     int64
	steps     int64
	err       error
	pipelined bool
}

func newStream(depth int, pipelined bool) *Stream {
	if depth <= 0 {
		depth = DefaultStreamDepth
	}
	return &Stream{
		rows:      make(chan []Val, depth),
		done:      make(chan struct{}),
		colsCh:    make(chan struct{}),
		pipelined: pipelined,
	}
}

// run starts the producer goroutine. fn pushes columns through onCols
// exactly once and rows through sink; the sink blocks on the bounded
// channel and aborts when ctx is cancelled, so an abandoned consumer
// that cancels its context always unblocks the producer.
func (s *Stream) run(ctx context.Context, fn func(onCols func([]string) error, sink RowSink) (int64, error)) {
	go func() {
		defer close(s.done)
		defer close(s.rows)
		onCols := func(cols []string) error {
			s.cols = cols
			close(s.colsCh)
			return nil
		}
		sink := func(row []Val) error {
			select {
			case s.rows <- row:
				s.count++
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		s.steps, s.err = fn(onCols, sink)
	}()
}

// Columns blocks until the output columns are known (before the first
// row) or the execution failed before producing them.
func (s *Stream) Columns(ctx context.Context) ([]string, error) {
	select {
	case <-s.colsCh:
		return s.cols, nil
	case <-s.done:
		// Both channels may be ready; prefer the columns if they exist.
		select {
		case <-s.colsCh:
			return s.cols, nil
		default:
		}
		return nil, s.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Rows is the bounded result channel; it closes when execution ends
// (successfully or not — check Wait for the terminal error).
func (s *Stream) Rows() <-chan []Val { return s.rows }

// Wait blocks until the execution finishes and returns how many rows
// were produced into the channel, the step count, and the terminal
// error (nil on success).
func (s *Stream) Wait() (count, steps int64, err error) {
	<-s.done
	return s.count, s.steps, s.err
}

// Pipelined reports whether the stream ran with no blocking stage
// (bounded memory); false for a cache replay or an ORDER BY or
// aggregate query.
func (s *Stream) Pipelined() bool { return s.pipelined }

// ExecuteStream runs q naively as a streaming execution, yielding
// projected rows through a bounded channel of the given depth (<= 0
// means DefaultStreamDepth).
func ExecuteStream(ctx context.Context, src graph.Source, q *Query, lim Limits, depth int) *Stream {
	return ExecuteStreamHints(ctx, src, q, lim, nil, false, depth)
}

// ExecuteStreamHints is the channel surface of ExecuteStreamFunc, with
// its hints and fastPred. A query without a blocking stage runs in
// memory bounded by the channel depth; a blocking stage holds its own
// input. Budgets, ctx cancellation and panic recovery are the
// executor's; the terminal error is reported by Wait.
func ExecuteStreamHints(ctx context.Context, src graph.Source, q *Query, lim Limits, hints [][]PatternHint, fastPred bool, depth int) *Stream {
	s := newStream(depth, !hasBlockingStage(q))
	s.run(ctx, func(onCols func([]string) error, sink RowSink) (int64, error) {
		sp := trace.FromContext(ctx).Child("query.stream", trace.Bool("pipelined", s.pipelined))
		defer sp.End()
		return ExecuteStreamFunc(trace.ContextWith(ctx, sp), src, q, lim, hints, fastPred, nil, onCols, sink)
	})
	return s
}

// ReplayStream streams an already-computed result (a query-cache hit)
// through the Stream surface. The result is shared with the cache:
// consumers must not mutate received rows.
func ReplayStream(ctx context.Context, res *Result, depth int) *Stream {
	s := newStream(depth, false)
	s.run(ctx, func(onCols func([]string) error, sink RowSink) (int64, error) {
		if err := onCols(res.Columns); err != nil {
			return res.Steps, err
		}
		for _, row := range res.Rows {
			if err := sink(row); err != nil {
				return res.Steps, err
			}
		}
		return res.Steps, nil
	})
	return s
}
