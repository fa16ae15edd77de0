package tune_test

import (
	"context"
	"fmt"

	"repro/tune"
)

// Example_session shows the public tuning loop: create a session, ask
// for configuration advice, run the workload interval however you like,
// and report the raw observation back — SQL text, optimizer statistics,
// metrics and the measured performance. The session featurizes the
// workload internally; no vectors cross the API.
func Example_session() {
	sess, err := tune.NewSession(tune.Config{Space: "case5", Seed: 1})
	if err != nil {
		panic(err)
	}

	// Ask for the first configuration. With nothing observed yet the
	// advice falls back to the initial safety set (the DBA default).
	advice, err := sess.Suggest(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("knobs advised:", len(advice.Config))
	fmt.Println("fallback to initial safe config:", advice.Fallback)

	// Apply advice.Config to the database, run one interval, measure.
	// Here: pretend we measured 21500 txn/s vs. a 20000 txn/s default.
	err = sess.Report(tune.Outcome{
		Workload: tune.Workload{
			Statements: []tune.Statement{
				{SQL: "SELECT c_balance FROM customer WHERE c_id = 42", Weight: 3},
				{SQL: "UPDATE warehouse SET w_ytd = w_ytd + 7 WHERE w_id = 1", Weight: 1},
			},
			Unlimited: true,
		},
		Stats:       tune.OptimizerStats{RowsExamined: 120, FilterPct: 30, IndexUsedFrac: 1},
		Metrics:     tune.Metrics{BufferPoolHitRate: 0.96, QPS: 21500},
		Performance: 21500,
		Baseline:    20000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("intervals reported:", sess.Iter())

	// Snapshot the session; Restore resumes it bitwise-identically.
	data, err := sess.Snapshot()
	if err != nil {
		panic(err)
	}
	restored, err := tune.Restore(data)
	if err != nil {
		panic(err)
	}
	fmt.Println("restored at interval:", restored.Iter())

	// Output:
	// knobs advised: 5
	// fallback to initial safe config: true
	// intervals reported: 1
	// restored at interval: 1
}
