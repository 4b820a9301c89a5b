package query

import (
	"errors"

	"frappe/internal/obs"
)

// Executor metrics. Everything here is observed once per query
// completion (never per expansion step), so the cost is a handful of
// atomic adds amortised over the whole query — invisible next to even a
// warm index hit.
var (
	mQueries = obs.Default.Counter("frappe_query_total",
		"Queries executed (including failed ones).", nil)
	mQueryErrors = obs.Default.Counter("frappe_query_errors_total",
		"Queries that returned an error (parse errors excluded).", nil)
	mBudgetAborts = obs.Default.Counter("frappe_query_budget_aborts_total",
		"Queries aborted by a row or step budget.", nil)
	mRowsReturned = obs.Default.Counter("frappe_query_rows_returned_total",
		"Result rows returned by successful queries.", nil)
	mStepsTotal = obs.Default.Counter("frappe_query_steps_total",
		"Pattern-expansion steps performed across all queries.", nil)
	mQueryDuration = obs.Default.Histogram("frappe_query_duration_ms",
		"Query wall time in milliseconds.", nil, nil)
)

// recordQueryMetrics feeds one finished execution into the
// frappe_query_* instruments; rows is the number of rows emitted to the
// sink.
func recordQueryMetrics(rows int64, err error, millis float64, steps int64) {
	mQueries.Inc()
	mStepsTotal.Add(steps)
	mQueryDuration.Observe(millis)
	if err != nil {
		mQueryErrors.Inc()
		if errors.Is(err, ErrBudgetExceeded) {
			mBudgetAborts.Inc()
		}
		return
	}
	mRowsReturned.Add(rows)
}

// Counters is a point-in-time snapshot of the executor's counters,
// surfaced by GET /api/stats so the console can show budget pressure
// without parsing /metrics.
type Counters struct {
	Queries      int64 `json:"queries"`
	Errors       int64 `json:"errors"`
	BudgetAborts int64 `json:"budgetAborts"`
	RowsReturned int64 `json:"rowsReturned"`
	Steps        int64 `json:"steps"`
}

// CountersSnapshot reads the current executor counters.
func CountersSnapshot() Counters {
	return Counters{
		Queries:      mQueries.Value(),
		Errors:       mQueryErrors.Value(),
		BudgetAborts: mBudgetAborts.Value(),
		RowsReturned: mRowsReturned.Value(),
		Steps:        mStepsTotal.Value(),
	}
}
