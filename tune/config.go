package tune

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
)

// TunerOptions are the OnlineTune algorithm options: ten snake_case
// tunables (β, ε, the safety margin, …) Config.Options sets, and the
// in-process ablation switches, rollout policy and knowledge hook.
type TunerOptions = core.Options

// DefaultTunerOptions mirrors the paper's settings.
func DefaultTunerOptions() TunerOptions { return core.DefaultOptions() }

// RolloutConfig enables the staged rollout: recommendations that
// differ from the primary's last-good configuration are staged on a
// second replica and promoted only after a clean comparison window (see
// the README's "Blue/green rollout" section). Zero fields take the
// rollout defaults (canary mode, window 3, promotion on touching τ).
type RolloutConfig = rollout.Policy

// rolloutMode resolves the configured rollout mode ("" when the rollout
// is disabled).
func (c Config) rolloutMode() string {
	if c.Rollout == nil {
		return ""
	}
	return c.Rollout.WithDefaults().Mode
}

// Config declaratively describes an OnlineTune session: the knob space
// by name, the seed, and the safety and rollout options. The zero value
// is valid — the full 40-knob MySQL space with the paper's defaults.
type Config struct {
	// Space selects the knob space by name from the engine-keyed
	// registry (Spaces lists them): "mysql57" (default, 40 knobs; "full"
	// is accepted as an alias), "case5" (the 5-knob case-study subset),
	// "pg16" (PostgreSQL 16, 31 knobs) or "pg-case" (its 5-knob
	// subset). The space's engine tag selects the simulator behavior
	// and white-box rule set.
	Space string `json:"space,omitempty"`
	// Seed makes every random choice — candidate sampling, featurizer
	// pre-training, exploration — deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Initial is the initial safety-set configuration; defaults to the
	// space's DBA default. Missing knobs keep their DBA default.
	Initial KnobConfig `json:"initial,omitempty"`
	// Rollout enables the staged rollout; nil keeps direct apply
	// (recommendations go straight to the primary — the ablation and
	// the pre-rollout behavior).
	Rollout *RolloutConfig `json:"rollout,omitempty"`
	// Options overrides algorithm tunables: an options object decodes
	// onto the defaults, so it names only the tunables it changes. Its
	// in-process fields (the Use* switches, Rollout, Knowledge) must stay
	// at their defaults; the rollout is set through Rollout.
	Options *TunerOptions `json:"options,omitempty"`
	// Hardware overrides the instance description the white-box rules
	// reason about; defaults to the paper's 8 vCPU / 16 GB instance.
	Hardware *Hardware `json:"hardware,omitempty"`
	// Knowledge opts the session into the fleet knowledge base: its
	// tuner queries for warm-start advice when cold (and after a drift
	// rollback) and contributes every safe observation and canary
	// promotion. The Manager sets it on sessions it creates while its own
	// knowledge base is enabled; it round-trips through snapshots so a
	// restored session replays its logged advice even with no store
	// attached.
	Knowledge bool `json:"knowledge,omitempty"`

	// fleet is the Manager-owned store backing the session's knowledge
	// adapter; nil outside a knowledge-enabled Manager (queries miss,
	// contributions drop, replay still works from the event log).
	fleet *fleetKnowledge
	// know is the session's adapter, built by NewSession when Knowledge
	// is set; options() hands it to the core tuner.
	know *knowAdapter
}

// Spaces lists the knob-space names Config.Space accepts.
func Spaces() []string { return knobs.SpaceNames() }

// OpenSpace resolves a knob-space name ("" defaults to mysql57).
func OpenSpace(name string) (*knobs.Space, error) {
	return Config{Space: name}.space()
}

// withDefaults fills the defaulted fields.
func (c Config) withDefaults() Config {
	if c.Space == "" {
		c.Space = "mysql57"
	}
	return c
}

// space resolves the named knob space through the engine registry.
func (c Config) space() (*knobs.Space, error) {
	s, err := knobs.Lookup(c.withDefaults().Space)
	if err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	return s, nil
}

// initial resolves the initial safe configuration for a space: the DBA
// default overlaid with any explicitly configured knob values.
func (c Config) initial(space *knobs.Space) (KnobConfig, error) {
	cfg := space.DBADefault()
	for name, v := range c.Initial {
		k, ok := space.Get(name)
		if !ok {
			return nil, fmt.Errorf("tune: initial config sets unknown knob %q", name)
		}
		cfg[name] = k.ClampRaw(v)
	}
	return cfg, nil
}

// options resolves the algorithm options.
func (c Config) options() core.Options {
	opts := core.DefaultOptions()
	if c.Options != nil {
		opts = *c.Options
	}
	opts.Rollout = c.Rollout
	if c.know != nil {
		opts.Knowledge = c.know
	}
	return opts
}

// maxCandidates bounds Options.Candidates, 100x the paper's 100: every
// acquisition round allocates and scores that many candidates, so an
// unbounded count lets one create request exhaust the server's memory.
const maxCandidates = 10000

// maxRepoCap bounds Options.RepoCap at the paper-scale default: every
// re-cluster check is quadratic in the resident contexts, so an
// unbounded repository (repo_cap 0) or a huge cap lets one session's
// checks grow without limit.
const maxRepoCap = 4096

// maxClusterCap bounds Options.ClusterCap at 3.2x the paper's P = 80:
// each cluster model's GP grows to that many rows, and hyperparameter
// optimization is cubic and a window slide quadratic in them. On a
// 2-vCPU Xeon VM, with 40 knobs and 8 context features, one model's
// OptimizeHyperparams(60) takes 11 ms at 80 rows and 0.19 s at 256, and
// a Slide 0.07 ms and 2.1 ms.
const maxClusterCap = 256

// validateOptions range-checks an explicit options object's tunables and
// refuses in-process fields off their defaults: a snapshot does not carry
// them, so a restore could not reproduce the session.
func (c Config) validateOptions() error {
	o := c.Options
	if o == nil {
		return nil
	}
	for _, check := range []struct {
		ok   bool
		want string
	}{
		{o.UseSafety && o.UseBlackBox && o.UseWhiteBox && o.UseSubspace && o.UseClustering && o.Rollout == nil && o.Knowledge == nil,
			"the in-process fields (Use* switches, Rollout, Knowledge) at their defaults"},
		{o.Beta > 0 && o.SafetyMargin >= 0, "beta > 0 and safety_margin >= 0"},
		{o.Epsilon >= 0 && o.Epsilon <= 1 && o.MIThreshold >= 0 && o.MIThreshold <= 1, "epsilon and mi_threshold in [0,1]"},
		{o.Candidates >= 1 && o.Candidates <= maxCandidates, fmt.Sprintf("candidates in [1,%d]", maxCandidates)},
		{o.ReclusterEvery >= 1 && o.MinRecluster >= 1, "recluster_every and min_recluster >= 1"},
		{o.ClusterCap >= 2 && o.ClusterCap <= maxClusterCap, fmt.Sprintf("cluster_cap in [2,%d]", maxClusterCap)},
		{o.HyperoptEvery >= 0, "hyperopt_every >= 0"},
		{o.RepoCap >= 1 && o.RepoCap <= maxRepoCap, fmt.Sprintf("repo_cap in [1,%d]", maxRepoCap)},
	} {
		if !check.ok {
			return fmt.Errorf("tune: %w: options: want %s", ErrInvalid, check.want)
		}
	}
	return nil
}

// hardware resolves the instance description.
func (c Config) hardware() Hardware {
	if c.Hardware != nil {
		return *c.Hardware
	}
	return dbsim.DefaultHardware()
}
