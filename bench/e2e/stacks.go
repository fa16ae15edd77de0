package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/featurize"
	"repro/internal/workload"
	"repro/tune"
)

// stack is one way of serving the tuning API. The workload's own stack
// is the system under test; the traced run adds peeled stacks that serve
// the same calls with outer layers removed, so a layer's cost is the
// difference between two neighbours.
type stack interface {
	layer() string
	create(id string, cfg tune.Config) error
	suggest(id string) (tune.Advice, error)
	report(id string, o tune.Outcome) error
	close() error
}

// managerStack calls a tune.Manager in process.
type managerStack struct {
	name string
	m    *tune.Manager
	// splitHydrate makes suggest call Manager.Get first, so the traced
	// run sees hydration apart from the suggestion; hydrateNs is that
	// call's duration when it hydrated the session, else 0.
	splitHydrate bool
	hydrateNs    int64
}

func openManager(name, dir string, opts tune.ManagerOptions) (*managerStack, error) {
	m, err := tune.NewManagerOpts(dir, opts)
	if err != nil {
		return nil, err
	}
	return &managerStack{name: name, m: m}, nil
}

func (s *managerStack) layer() string { return s.name }

func (s *managerStack) create(id string, cfg tune.Config) error {
	_, err := s.m.Create(id, cfg)
	return err
}

func (s *managerStack) suggest(id string) (tune.Advice, error) {
	if s.splitHydrate {
		before := s.m.Stats().Hydrations
		t0 := time.Now()
		if _, err := s.m.Get(id); err != nil {
			return tune.Advice{}, err
		}
		s.hydrateNs = 0
		if ns := time.Since(t0).Nanoseconds(); s.m.Stats().Hydrations > before {
			s.hydrateNs = ns
		}
	}
	return s.m.Suggest(context.Background(), id)
}

func (s *managerStack) report(id string, o tune.Outcome) error {
	_, err := s.m.Report(id, o)
	return err
}

func (s *managerStack) close() error { return s.m.Close() }

// httpStack drives tune.NewServer over one keep-alive loopback
// connection, the way cmd/loadgen drives cmd/tuned.
type httpStack struct {
	*managerStack
	srv    *http.Server
	served chan error
	client *http.Client
	base   string
	wire   int64 // request plus response body bytes
}

func openHTTP(dir string, opts tune.ManagerOptions) (*httpStack, error) {
	ms, err := openManager("manager", dir, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.close()
		return nil, err
	}
	h := &httpStack{
		managerStack: ms,
		srv:          &http.Server{Handler: tune.NewServer(ms.m)},
		served:       make(chan error, 1),
		client:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
		base:         "http://" + ln.Addr().String(),
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

func (s *httpStack) layer() string { return "server" }

func (s *httpStack) post(path string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	s.wire += int64(buf.Len())
	resp, err := s.client.Post(s.base+path, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	s.wire += int64(len(data))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (s *httpStack) create(id string, cfg tune.Config) error {
	return s.post("/v1/sessions", map[string]any{"id": id, "config": cfg}, nil)
}

func (s *httpStack) suggest(id string) (tune.Advice, error) {
	var adv tune.Advice
	err := s.post("/v1/sessions/"+id+"/suggest", nil, &adv)
	return adv, err
}

func (s *httpStack) report(id string, o tune.Outcome) error {
	return s.post("/v1/sessions/"+id+"/report", o, nil)
}

// close stops the server, waits for its goroutine, then closes the
// manager underneath.
func (s *httpStack) close() error {
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := s.managerStack.close(); err == nil {
		err = cerr
	}
	return err
}

// sessionStack is bare tune.Sessions: no gate, residency or persistence.
type sessionStack struct {
	sessions map[string]*tune.Session
}

func (s *sessionStack) layer() string { return "session" }

func (s *sessionStack) create(id string, cfg tune.Config) error {
	sess, err := tune.NewSession(cfg)
	if err != nil {
		return err
	}
	s.sessions[id] = sess
	return nil
}

func (s *sessionStack) suggest(id string) (tune.Advice, error) {
	return s.sessions[id].Suggest(context.Background())
}

func (s *sessionStack) report(id string, o tune.Outcome) error {
	return s.sessions[id].Report(o)
}

func (s *sessionStack) close() error { return nil }

// tunerStack is what a direct-apply Session wraps, built from public
// constructors: the pretrained featurizer and the OnlineTune adapter. It
// keeps the per-interval bookkeeping Session keeps (last context, metrics
// and threshold) and nothing else: no event log, no advice assembly.
type tunerStack struct {
	tuners map[string]*bareTuner
	// last is the tuner the latest call went to and the featurizer time
	// inside that call, for the trace's child spans.
	last       *bareTuner
	lastFeatNs int64
}

type bareTuner struct {
	feat *featurize.Featurizer
	tn   *tune.OnlineTuner
	hw   tune.Hardware

	iter    int
	snap    workload.Snapshot
	ctx     []float64
	met     tune.Metrics
	tau     float64
	olap    bool
	lastCfg tune.KnobConfig
}

func (s *tunerStack) layer() string { return "tuner" }

func (s *tunerStack) create(id string, cfg tune.Config) error {
	s.last = nil
	space, err := tune.OpenSpace(cfg.Space)
	if err != nil {
		return err
	}
	feat := featurize.NewPretrained(cfg.Seed)
	s.tuners[id] = &bareTuner{
		feat:    feat,
		tn:      tune.NewOnlineTuner(space, featurize.ContextDim, space.DBADefault(), cfg.Seed, tune.DefaultTunerOptions()),
		hw:      dbsim.DefaultHardware(),
		ctx:     make([]float64, feat.Dim()),
		lastCfg: space.DBADefault(),
	}
	return nil
}

func (s *tunerStack) suggest(id string) (tune.Advice, error) {
	b := s.tuners[id]
	s.last, s.lastFeatNs = b, 0
	cfg := b.tn.Propose(tune.Env{
		Iter: b.iter, Snapshot: b.snap, Ctx: b.ctx, Metrics: b.met,
		Tau: b.tau, OLAP: b.olap, HW: b.hw,
	})
	b.lastCfg = cfg
	return tune.Advice{Iter: b.iter, Config: cfg, Unit: b.tn.Last().Unit}, nil
}

func (s *tunerStack) report(id string, o tune.Outcome) error {
	b := s.tuners[id]
	snap := sessionSnapshot(o.Workload, b.iter)
	t0 := time.Now()
	ctx := b.feat.ContextInto(nil, snap, o.Stats)
	s.last, s.lastFeatNs = b, time.Since(t0).Nanoseconds()
	res := tune.Result{Failed: o.Failed, Metrics: o.Metrics, P99LatencyMs: o.P99LatencyMs}
	if snap.OLAP {
		res.ExecTimeSec = -o.Performance
	} else {
		res.Throughput = o.Performance
	}
	b.tn.Feedback(tune.Env{
		Iter: b.iter, Snapshot: snap, Ctx: ctx, Metrics: o.Metrics,
		Tau: o.Baseline, OLAP: snap.OLAP, HW: b.hw,
	}, b.lastCfg, res)
	b.snap, b.ctx, b.met, b.tau, b.olap = snap, ctx, o.Metrics, o.Baseline, snap.OLAP
	b.iter++
	return nil
}

func (s *tunerStack) close() error { return nil }

// timings returns the core stage clock of the tuner the latest call
// went to.
func (s *tunerStack) timings() core.StageTimes { return s.last.tn.T.Timings() }

// sessionSnapshot rebuilds the internal workload form a Session derives
// from a reported tune.Workload: statement text and weights survive the
// wire, per-query optimizer metadata does not.
func sessionSnapshot(w tune.Workload, iter int) workload.Snapshot {
	s := workload.Snapshot{
		Iter: iter, Bench: "session",
		ArrivalRate: w.ArrivalRate, Unlimited: w.Unlimited, OLAP: w.OLAP,
		ReadFrac: w.ReadFrac, ScanFrac: w.ScanFrac, SortFrac: w.SortFrac,
		TmpFrac: w.TmpFrac, JoinFrac: w.JoinFrac, Skew: w.Skew,
		WorkingSetFrac: w.WorkingSetFrac, PointFrac: w.PointFrac,
		TxnOps: w.TxnOps, DataGB: w.DataGB,
	}
	for _, st := range w.Statements {
		wgt := st.Weight
		if wgt == 0 {
			wgt = 1
		}
		s.Queries = append(s.Queries, workload.Query{SQL: st.SQL, Weight: wgt})
	}
	return s
}
