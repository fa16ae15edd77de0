// Package knowledge is the fleet knowledge base: a concurrency-safe,
// cross-session store of safe configurations and GP hyperparameters
// keyed by (engine, space name, context-cluster centroid). Sessions
// contribute on every safe observation and canary promotion; new or
// drift-rolled-back sessions query it to warm-start — seeding their
// initial safe set with nearest-cluster configs, initializing GP kernel
// hyperparameters from fleet medians, and centering the subspace on the
// best transferred configuration.
//
// The store is advisory: a transferred configuration is a candidate,
// never a decision. Consumers must route every transferred config
// through the same safety assessment (black-box confidence bounds +
// white-box rules) as locally generated candidates.
//
// Everything is deterministic: no randomness, no clocks, stable
// iteration orders. A store restored from its Snapshot answers every
// query bitwise-identically to the store that produced it.
package knowledge

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mathx"
)

// SnapshotVersion versions the store's serialized form.
const SnapshotVersion = 1

// SafeConfig is one transferable configuration: the unit-encoded knob
// vector with the performance and safety threshold it was measured at.
type SafeConfig struct {
	Unit []float64 `json:"unit"`
	Perf float64   `json:"perf"`
	Tau  float64   `json:"tau"`
	// Promoted marks configurations that survived a canary comparison
	// window (stronger evidence than a single safe observation).
	Promoted bool `json:"promoted,omitempty"`
}

// Score is the configuration's relative headroom over its safety
// threshold — the cross-session quality measure. Absolute performance
// is not comparable across instances or drift phases; headroom is.
func (c SafeConfig) Score() float64 {
	if c.Tau == 0 {
		return c.Perf
	}
	return (c.Perf - c.Tau) / math.Abs(c.Tau)
}

// Contribution is one session's deposit into the knowledge base.
type Contribution struct {
	Engine  string     `json:"engine"`
	Space   string     `json:"space"`
	Context []float64  `json:"context"`
	Config  SafeConfig `json:"config"`
	// Hyper carries the owning cluster model's GP hyperparameters
	// (log-space kernel params with log noise appended), only from
	// models that have actually optimized them — priors would pollute
	// the fleet medians.
	Hyper []float64 `json:"hyper,omitempty"`
}

// Advice is a query result: the matched cluster's best transferable
// configurations and the fleet-median GP hyperparameters.
type Advice struct {
	// Centroid is the matched context-cluster center; Distance is the
	// squared L2 distance from the queried context to it.
	Centroid []float64 `json:"centroid"`
	Distance float64   `json:"distance"`
	// Weight is how many contributions the cluster has absorbed.
	Weight int `json:"weight"`
	// Configs are the cluster's transferable configurations, promoted
	// first, then by Score, best first.
	Configs []SafeConfig `json:"configs"`
	// Hyper is the per-dimension median of the cluster's contributed GP
	// hyperparameters (empty until any were contributed).
	Hyper []float64 `json:"hyper,omitempty"`
}

// Params bound the store. Start from DefaultParams and override the
// fields to change.
type Params struct {
	// MaxClusters caps context clusters per (engine, space); the
	// lowest-weight cluster is evicted at the cap.
	MaxClusters int
	// MaxConfigs caps stored configurations per cluster (worst score
	// evicted first).
	MaxConfigs int
	// MaxHypers caps stored hyperparameter vectors per cluster (FIFO).
	MaxHypers int
	// MaxAdvice caps the configurations one Advice carries.
	MaxAdvice int
	// MergeRadius is the squared context distance within which a
	// contribution merges into an existing cluster rather than founding
	// a new one. The scale matches core.OnlineTune's context-novelty
	// threshold (squared L2 over featurized contexts).
	MergeRadius float64
	// MatchRadius is the maximum squared centroid distance a query may
	// match at; +Inf (the default) always matches the nearest cluster.
	MatchRadius float64
}

// DefaultParams returns the production defaults.
func DefaultParams() Params {
	return Params{
		MaxClusters: 64,
		MaxConfigs:  16,
		MaxHypers:   32,
		MaxAdvice:   8,
		MergeRadius: 0.10,
		MatchRadius: math.Inf(1),
	}
}

// Stats summarizes the store.
type Stats struct {
	Spaces   int `json:"spaces"`
	Clusters int `json:"clusters"`
	// Entries is the number of stored safe configurations.
	Entries int `json:"entries"`
	Hypers  int `json:"hypers"`
	// Contributions counts lifetime deposits (survives Snapshot/Restore).
	Contributions int64 `json:"contributions"`
	// Queries counts Query calls this process; WarmStarts counts the
	// ones that returned advice.
	Queries    int64 `json:"queries"`
	WarmStarts int64 `json:"warm_starts"`
	// Bytes approximates the store's resident size.
	Bytes int64 `json:"bytes"`
}

// ClusterSnapshot is one context cluster's serialized form.
type ClusterSnapshot struct {
	Centroid []float64 `json:"centroid"`
	// Weight is the number of contributions merged into the centroid.
	Weight     float64      `json:"weight"`
	Configs    []SafeConfig `json:"configs"`
	Hypers     [][]float64  `json:"hypers,omitempty"`
	Promotions int          `json:"promotions,omitempty"`
}

// SpaceSnapshot groups one (engine, space)'s clusters.
type SpaceSnapshot struct {
	Engine   string            `json:"engine"`
	Space    string            `json:"space"`
	Clusters []ClusterSnapshot `json:"clusters"`
}

// Snapshot is the store's full serialized form (versioned; order is
// deterministic, so equal stores produce byte-equal marshalings).
type Snapshot struct {
	Version       int             `json:"version"`
	Contributions int64           `json:"contributions"`
	Spaces        []SpaceSnapshot `json:"spaces"`
}

type cluster struct {
	centroid   []float64
	weight     float64
	configs    []SafeConfig
	hypers     [][]float64
	promotions int
}

type spaceKey struct{ engine, space string }

// Store is the fleet knowledge base. Safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	params Params
	spaces map[spaceKey][]*cluster

	contributions int64
	queries       int64
	warmStarts    int64
}

// NewStore builds an empty store.
func NewStore(p Params) *Store {
	return &Store{params: p, spaces: map[spaceKey][]*cluster{}}
}

// sanitizeUnit clamps a unit vector into [0,1] and rejects non-finite
// values. Every configuration the store hands out is inside the space
// bounds by construction.
func sanitizeUnit(u []float64) ([]float64, bool) {
	if len(u) == 0 {
		return nil, false
	}
	out := make([]float64, len(u))
	for i, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		out[i] = math.Min(1, math.Max(0, v))
	}
	return out, true
}

func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// configKey quantizes a unit vector for dedup (3 decimal places).
func configKey(u []float64) string {
	b := make([]byte, 0, len(u)*2)
	for _, x := range u {
		q := int(x*1000 + 0.5)
		b = append(b, byte(q), byte(q>>8))
	}
	return string(b)
}

// Contribute deposits one observation. Invalid payloads (non-finite or
// empty vectors) are dropped silently — the store is advisory and must
// never fail a tuning operation.
func (s *Store) Contribute(c Contribution) {
	unit, ok := sanitizeUnit(c.Config.Unit)
	if !ok || len(c.Context) == 0 || !finiteVec(c.Context) ||
		math.IsNaN(c.Config.Perf) || math.IsNaN(c.Config.Tau) {
		return
	}
	c.Config.Unit = unit
	s.mu.Lock()
	defer s.mu.Unlock()
	s.contributions++
	s.applyLocked(c)
}

// applyLocked merges one sanitized contribution. Also the Restore/Merge
// replay path, which must not recount lifetime contributions.
func (s *Store) applyLocked(c Contribution) {
	key := spaceKey{c.Engine, c.Space}
	clusters := s.spaces[key]
	ci, d2 := nearestCluster(clusters, c.Context)
	if ci < 0 || d2 > s.params.MergeRadius {
		cl := &cluster{centroid: append([]float64(nil), c.Context...), weight: 1}
		if len(clusters) >= s.params.MaxClusters {
			// Evict the lowest-weight (least corroborated) cluster.
			evict := 0
			for i, other := range clusters {
				if other.weight < clusters[evict].weight {
					evict = i
				}
			}
			clusters[evict] = cl
		} else {
			clusters = append(clusters, cl)
		}
		s.spaces[key] = clusters
		s.addToCluster(cl, c)
		return
	}
	cl := clusters[ci]
	// Running-mean centroid update.
	w := cl.weight
	for i := range cl.centroid {
		cl.centroid[i] = (cl.centroid[i]*w + c.Context[i]) / (w + 1)
	}
	cl.weight = w + 1
	s.addToCluster(cl, c)
}

func (s *Store) addToCluster(cl *cluster, c Contribution) {
	if c.Config.Promoted {
		cl.promotions++
	}
	ck := configKey(c.Config.Unit)
	replaced := false
	for i := range cl.configs {
		if configKey(cl.configs[i].Unit) == ck {
			// Keep the stronger record for the same quantized config.
			if better(c.Config, cl.configs[i]) {
				cl.configs[i] = c.Config
			}
			replaced = true
			break
		}
	}
	if !replaced {
		cl.configs = append(cl.configs, c.Config)
	}
	sortConfigs(cl.configs)
	if len(cl.configs) > s.params.MaxConfigs {
		cl.configs = cl.configs[:s.params.MaxConfigs]
	}
	if len(c.Hyper) > 0 && finiteVec(c.Hyper) {
		if len(cl.hypers) == 0 || len(cl.hypers[0]) == len(c.Hyper) {
			cl.hypers = append(cl.hypers, append([]float64(nil), c.Hyper...))
			if len(cl.hypers) > s.params.MaxHypers {
				cl.hypers = cl.hypers[len(cl.hypers)-s.params.MaxHypers:]
			}
		}
	}
}

// better orders two records of the same configuration: promotion
// evidence first, then score.
func better(a, b SafeConfig) bool {
	if a.Promoted != b.Promoted {
		return a.Promoted
	}
	return a.Score() > b.Score()
}

// sortConfigs orders transferable configs: promoted first, then by
// score descending, key ascending for a deterministic total order.
func sortConfigs(cs []SafeConfig) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Promoted != cs[j].Promoted {
			return cs[i].Promoted
		}
		si, sj := cs[i].Score(), cs[j].Score()
		if si != sj {
			return si > sj
		}
		return configKey(cs[i].Unit) < configKey(cs[j].Unit)
	})
}

func nearestCluster(clusters []*cluster, ctx []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, cl := range clusters {
		if len(cl.centroid) != len(ctx) {
			continue
		}
		if d := mathx.Dist2(cl.centroid, ctx); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// Query matches a context against the (engine, space)'s clusters and
// returns transfer advice from the nearest one within MatchRadius, or
// nil when the store has nothing relevant. The returned Advice owns its
// memory — callers may mutate it freely.
func (s *Store) Query(engine, space string, ctx []float64) *Advice {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	clusters := s.spaces[spaceKey{engine, space}]
	ci, d2 := nearestCluster(clusters, ctx)
	if ci < 0 || d2 > s.params.MatchRadius {
		return nil
	}
	cl := clusters[ci]
	if len(cl.configs) == 0 {
		return nil
	}
	adv := &Advice{
		Centroid: append([]float64(nil), cl.centroid...),
		Distance: d2,
		Weight:   int(cl.weight),
		Hyper:    hyperMedian(cl.hypers),
	}
	n := len(cl.configs)
	if n > s.params.MaxAdvice {
		n = s.params.MaxAdvice
	}
	for _, c := range cl.configs[:n] {
		cc := c
		cc.Unit = append([]float64(nil), c.Unit...)
		adv.Configs = append(adv.Configs, cc)
	}
	s.warmStarts++
	return adv
}

// hyperMedian is the per-dimension median of the contributed
// hyperparameter vectors (all the same length by construction).
func hyperMedian(hypers [][]float64) []float64 {
	if len(hypers) == 0 {
		return nil
	}
	dim := len(hypers[0])
	out := make([]float64, dim)
	col := make([]float64, 0, len(hypers))
	for d := 0; d < dim; d++ {
		col = col[:0]
		for _, h := range hypers {
			col = append(col, h[d])
		}
		sort.Float64s(col)
		if n := len(col); n%2 == 1 {
			out[d] = col[n/2]
		} else {
			out[d] = (col[n/2-1] + col[n/2]) / 2
		}
	}
	return out
}

// Stats reports the store's counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Spaces:        len(s.spaces),
		Contributions: s.contributions,
		Queries:       s.queries,
		WarmStarts:    s.warmStarts,
	}
	for _, clusters := range s.spaces {
		st.Clusters += len(clusters)
		for _, cl := range clusters {
			st.Entries += len(cl.configs)
			st.Hypers += len(cl.hypers)
			st.Bytes += int64(8 * len(cl.centroid))
			for _, c := range cl.configs {
				st.Bytes += int64(8*len(c.Unit) + 24)
			}
			for _, h := range cl.hypers {
				st.Bytes += int64(8 * len(h))
			}
		}
	}
	return st
}

// Snapshot serializes the store deterministically (spaces sorted by
// engine then space; cluster order preserved, so a restored store
// answers queries bitwise-identically).
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := Snapshot{Version: SnapshotVersion, Contributions: s.contributions}
	keys := make([]spaceKey, 0, len(s.spaces))
	for k := range s.spaces {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].engine != keys[j].engine {
			return keys[i].engine < keys[j].engine
		}
		return keys[i].space < keys[j].space
	})
	for _, k := range keys {
		ss := SpaceSnapshot{Engine: k.engine, Space: k.space}
		for _, cl := range s.spaces[k] {
			cs := ClusterSnapshot{
				Centroid:   append([]float64(nil), cl.centroid...),
				Weight:     cl.weight,
				Promotions: cl.promotions,
			}
			for _, c := range cl.configs {
				cc := c
				cc.Unit = append([]float64(nil), c.Unit...)
				cs.Configs = append(cs.Configs, cc)
			}
			for _, h := range cl.hypers {
				cs.Hypers = append(cs.Hypers, append([]float64(nil), h...))
			}
			ss.Clusters = append(ss.Clusters, cs)
		}
		snap.Spaces = append(snap.Spaces, ss)
	}
	return snap
}

// Restore replaces the store's contents with a snapshot's.
func (s *Store) Restore(snap Snapshot) error {
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return fmt.Errorf("knowledge: snapshot version %d not supported (want 1..%d)", snap.Version, SnapshotVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spaces = map[spaceKey][]*cluster{}
	s.contributions = snap.Contributions
	for _, ss := range snap.Spaces {
		key := spaceKey{ss.Engine, ss.Space}
		for _, cs := range ss.Clusters {
			cl := &cluster{
				centroid:   append([]float64(nil), cs.Centroid...),
				weight:     cs.Weight,
				promotions: cs.Promotions,
			}
			for _, c := range cs.Configs {
				u, ok := sanitizeUnit(c.Unit)
				if !ok {
					continue
				}
				c.Unit = u
				cl.configs = append(cl.configs, c)
			}
			for _, h := range cs.Hypers {
				if len(h) > 0 && finiteVec(h) && (len(cl.hypers) == 0 || len(cl.hypers[0]) == len(h)) {
					cl.hypers = append(cl.hypers, append([]float64(nil), h...))
				}
			}
			s.spaces[key] = append(s.spaces[key], cl)
		}
	}
	return nil
}

// Merge folds a snapshot's contents into the store as fresh
// contributions (the import endpoint): every stored configuration and
// hyperparameter vector re-contributes at its cluster's centroid. It
// returns the number of records merged.
func (s *Store) Merge(snap Snapshot) (int, error) {
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return 0, fmt.Errorf("knowledge: snapshot version %d not supported (want 1..%d)", snap.Version, SnapshotVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	merged := 0
	for _, ss := range snap.Spaces {
		for _, cs := range ss.Clusters {
			if len(cs.Centroid) == 0 || !finiteVec(cs.Centroid) {
				continue
			}
			var first *SafeConfig
			for _, c := range cs.Configs {
				u, ok := sanitizeUnit(c.Unit)
				if !ok {
					continue
				}
				c.Unit = u
				if first == nil {
					cc := c
					first = &cc
				}
				s.contributions++
				s.applyLocked(Contribution{Engine: ss.Engine, Space: ss.Space, Context: cs.Centroid, Config: c})
				merged++
			}
			if first == nil {
				continue // hypers without any valid config have no anchor
			}
			// Hypers ride on the cluster's best config: re-contributing the
			// same quantized configuration dedups, so only the hyperparameter
			// vectors accumulate.
			for _, h := range cs.Hypers {
				if len(h) == 0 || !finiteVec(h) {
					continue
				}
				s.contributions++
				s.applyLocked(Contribution{Engine: ss.Engine, Space: ss.Space, Context: cs.Centroid, Config: *first, Hyper: h})
				merged++
			}
		}
	}
	return merged, nil
}
