// Command tuned is the tuning-as-a-service server: an HTTP/JSON API
// multiplexing many concurrent tuning sessions (one per database
// instance) through the public tune package. With -state every
// operation is made durable through a per-session write-ahead log with
// periodic compaction into base snapshots; on boot the server registers
// every durable session from snapshot headers alone (no replay) and
// hydrates each one on first touch, so a restarted server resumes every
// session with recommendations identical to an uninterrupted run while
// holding at most -max-resident sessions in memory.
//
// With -state the per-report fsync is shared fleet-wide: all sessions'
// WAL appends funnel into one group-commit journal that syncs once per
// batch, so checkpoint durability costs ~1 fsync per batch instead of
// one per report per session. A batch is every report pending when the
// one before it finishes; -commit-interval makes each batch wait that
// long for more.
//
// SIGINT or SIGTERM shuts the server down cleanly: in-flight requests
// drain, then the manager flushes the committer and closes every log,
// and the process exits 0.
//
// Usage:
//
//	tuned -addr :8080 -state /var/lib/tuned -max-resident 1024 -commit-interval 2ms
//
// API (see tune.NewServer):
//
//	POST   /v1/sessions                {"id": "db1", "config": {"space": "mysql57"}}
//	                                   + "seed", "initial", "rollout": {mode, window, promote_margin},
//	                                   "options": an overlay on the defaults, e.g. {"beta": 3}
//	POST   /v1/sessions/db1/suggest    → configuration advice
//	POST   /v1/sessions/db1/report     ← raw interval observation
//	GET    /v1/sessions/db1/rollout    → rollout phase, blue/green replicas, last decision
//	GET    /v1/sessions/db1/snapshot   → durable session snapshot
//	GET    /healthz                    → session/residency/fsync counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/tune"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	state := flag.String("state", "", "state directory: persist sessions here and reload them on boot (created if missing)")
	maxResident := flag.Int("max-resident", 0, "max sessions hydrated in memory before LRU eviction (0 = default, negative = unlimited)")
	noFsync := flag.Bool("no-fsync", false, "skip fsyncs on checkpoint writes (benchmarks only: a power failure may lose committed intervals)")
	commitInterval := flag.Duration("commit-interval", 0, "cross-session group-commit batch window (e.g. 2ms): how long a batch waits for more reports before its fsync; group commit is always on with -state, and ≤ 0 commits each batch immediately")
	knowledgeFlag := flag.Bool("knowledge", false, "enable the fleet knowledge base: sessions share safe configurations and GP hyperparameters for cross-session warm-starting")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ for hot-path profiling")
	flag.Parse()

	m, err := tune.NewManagerOpts(*state, tune.ManagerOptions{
		MaxResident:    *maxResident,
		NoFsync:        *noFsync,
		CommitInterval: *commitInterval,
		Knowledge:      *knowledgeFlag,
	})
	if err != nil {
		// A missing directory is created; reaching here means the path
		// is unwritable or holds a corrupt snapshot — fail loudly.
		fmt.Fprintln(os.Stderr, "tuned:", err)
		os.Exit(1)
	}
	if *state != "" {
		st := m.Stats()
		log.Printf("tuned: state dir %s: %d session(s) registered (hydrated lazily), %d stale temp file(s) swept",
			*state, st.Sessions, st.SweptTempFiles)
		if st.JournalPatchedRecords > 0 {
			log.Printf("tuned: recovered %d record(s) from the group-commit journal", st.JournalPatchedRecords)
		}
		log.Printf("tuned: cross-session group commit on (window %s)", commitWindow(*commitInterval))
	}
	if st := m.Stats().Knowledge; st != nil {
		log.Printf("tuned: fleet knowledge base on: %d entr(ies) across %d cluster(s), %d lifetime contribution(s)",
			st.Entries, st.Clusters, st.Contributions)
	}
	handler := tune.NewServer(m)
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("tuned: pprof exposed under /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	log.Printf("tuned: listening on %s", *addr)
	select {
	case err := <-served:
		fmt.Fprintln(os.Stderr, "tuned:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Printf("tuned: shutting down")
	drain, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err = errors.Join(srv.Shutdown(drain), m.Close())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tuned:", err)
		os.Exit(1)
	}
}

// Connection limits: a client gets readHeaderTimeout to send its request
// headers and an idle keep-alive connection is closed after idleTimeout;
// a shutdown waits at most shutdownTimeout for in-flight requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 30 * time.Second
)

// commitWindow renders the -commit-interval value for the boot log.
func commitWindow(d time.Duration) string {
	if d <= 0 {
		return "immediate"
	}
	return d.String()
}
