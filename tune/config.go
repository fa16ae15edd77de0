package tune

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/rollout"
)

// TunerOptions are the OnlineTune algorithm options (confidence-bound
// width, subspace/clustering/safety switches, …).
type TunerOptions = core.Options

// DefaultTunerOptions mirrors the paper's settings.
func DefaultTunerOptions() TunerOptions { return core.DefaultOptions() }

// RolloutConfig enables the staged rollout for OnlineTune-based
// backends: recommendations that differ from the primary's last-good
// configuration are staged on a second replica and promoted only after
// a clean comparison window (see the README's "Blue/green rollout"
// section). Zero fields take the rollout defaults (canary mode,
// window 3, threshold 2%).
type RolloutConfig struct {
	// Mode selects the rollout mode: "canary" (default) stages
	// candidates on a non-serving shadow replica; "bluegreen" keeps two
	// live replicas (blue serves while green is tuned) and swaps them
	// with an explicit, cost-measured switchover on promotion.
	Mode string `json:"mode,omitempty"`
	// Window is the number of paired primary/staged observations a
	// promotion decision requires.
	Window int `json:"window,omitempty"`
	// RegressionThreshold is the relative staged-vs-primary regression
	// beyond which a candidate is rolled back.
	RegressionThreshold float64 `json:"regression_threshold,omitempty"`
	// MaxChain bounds the previous-good rollback chain depth (0 = 8).
	MaxChain int `json:"max_chain,omitempty"`
	// SwitchoverIntervals is how many intervals a bluegreen switchover
	// occupies (0 = 1); canary mode ignores it.
	SwitchoverIntervals int `json:"switchover_intervals,omitempty"`
	// PromoteMargin is the fraction of τ a staged mean must clear ABOVE
	// the safety threshold before promotion (0 = promote on touching τ,
	// the default). Set it to the regression threshold for a promote
	// gate symmetric with the drift rollback.
	PromoteMargin float64 `json:"promote_margin,omitempty"`
}

// validate rejects unknown rollout modes at session creation.
func (rc *RolloutConfig) validate() error {
	if rc == nil {
		return nil
	}
	switch rc.Mode {
	case "", rollout.ModeCanary, rollout.ModeBlueGreen:
		return nil
	default:
		return fmt.Errorf("tune: unknown rollout mode %q (want %q or %q)", rc.Mode, rollout.ModeCanary, rollout.ModeBlueGreen)
	}
}

// rolloutMode resolves the configured rollout mode ("" when the rollout
// is disabled).
func (c Config) rolloutMode() string {
	if c.Rollout == nil {
		return ""
	}
	if c.Rollout.Mode == "" {
		return rollout.ModeCanary
	}
	return c.Rollout.Mode
}

// StoppingConfig tunes the stopping-and-triggering backend: pause
// reconfiguration after Patience consecutive intervals whose best
// Expected Improvement stays below EITrigger·|τ|.
type StoppingConfig struct {
	EITrigger float64 `json:"ei_trigger,omitempty"`
	Patience  int     `json:"patience,omitempty"`
}

// Config declaratively describes a tuning session: the knob space and
// backend by name, the seed, and the safety/stopping options. The zero
// value is valid — OnlineTune on the full 40-knob MySQL space with the
// paper's defaults.
type Config struct {
	// Space selects the knob space by name from the engine-keyed
	// registry (Spaces lists them): "mysql57" (default, 40 knobs; "full"
	// is accepted as an alias), "case5" (the 5-knob case-study subset),
	// "pg16" (PostgreSQL 16, 31 knobs) or "pg-case" (its 5-knob
	// subset). The space's engine tag selects the simulator behavior
	// and white-box rule set.
	Space string `json:"space,omitempty"`
	// Backend selects the tuner by registry name (Backends lists them);
	// default "onlinetune".
	Backend string `json:"backend,omitempty"`
	// Seed makes every random choice — candidate sampling, featurizer
	// pre-training, exploration — deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Initial is the initial safety-set configuration; defaults to the
	// space's DBA default. Missing knobs keep their DBA default.
	Initial KnobConfig `json:"initial,omitempty"`
	// DisableSafety turns off all safety machinery (vanilla contextual
	// BO — the paper's OnlineTune-w/o-safe ablation).
	DisableSafety bool `json:"disable_safety,omitempty"`
	// Rollout enables the staged canary rollout; nil keeps direct apply
	// (recommendations go straight to the primary — the ablation and
	// the pre-rollout behavior).
	Rollout *RolloutConfig `json:"rollout,omitempty"`
	// Stopping configures the "stopping" backend; ignored otherwise.
	// Zero fields take the defaults (EITrigger 0.05, Patience 4).
	Stopping *StoppingConfig `json:"stopping,omitempty"`
	// Options replaces every algorithm option at once and must be a
	// complete safety-on set (validateOptions). DisableSafety still
	// applies on top.
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
	if c.Backend == "" {
		c.Backend = "onlinetune"
	}
	return c
}

// space resolves the named knob space through the engine registry.
func (c Config) space() (*knobs.Space, error) {
	name := c.Space
	if name == "" {
		name = "mysql57"
	}
	s, err := knobs.Lookup(name)
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
	if c.DisableSafety {
		opts.UseSafety = false
	}
	if c.Rollout != nil {
		opts.Rollout = rollout.Policy{
			Enabled:             true,
			Mode:                c.Rollout.Mode,
			Window:              c.Rollout.Window,
			RegressionThreshold: c.Rollout.RegressionThreshold,
			MaxChain:            c.Rollout.MaxChain,
			SwitchoverIntervals: c.Rollout.SwitchoverIntervals,
			PromoteMargin:       c.Rollout.PromoteMargin,
		}
	}
	if c.know != nil {
		opts.Knowledge = c.know
	}
	return opts
}

// validateOptions rejects an explicit options object that is not a
// complete safety-on set. Options replaces the defaults wholesale and
// decodes every omitted field to zero, so a partial object would switch
// safety off by omission or divide by a zero ReclusterEvery on the first
// report. disable_safety is the one deliberate opt-out and
// config.rollout the one way to enable the rollout.
func (c Config) validateOptions() error {
	o := c.Options
	if o == nil {
		return nil
	}
	for _, check := range []struct {
		ok   bool
		want string
	}{
		{o.UseSafety && o.UseBlackBox && o.UseWhiteBox && o.UseSubspace && o.UseClustering,
			"all five Use* switches true (disable_safety is the opt-out)"},
		{o.Rollout == rollout.Policy{}, "Rollout unset (config.rollout enables it)"},
		{o.Beta > 0 && o.SafetyMargin >= 0, "Beta > 0 and SafetyMargin >= 0"},
		{o.Epsilon >= 0 && o.Epsilon <= 1 && o.MIThreshold >= 0 && o.MIThreshold <= 1, "Epsilon and MIThreshold in [0,1]"},
		{o.Candidates >= 1 && o.ReclusterEvery >= 1 && o.MinRecluster >= 1, "Candidates, ReclusterEvery and MinRecluster >= 1"},
		{o.ClusterCap >= 2, "ClusterCap >= 2"},
		{o.HyperoptEvery >= 0 && o.RepoCap >= 0, "HyperoptEvery and RepoCap >= 0"},
	} {
		if !check.ok {
			return fmt.Errorf("tune: %w: options must be a complete safety-on set: want %s", ErrInvalid, check.want)
		}
	}
	return nil
}

// stopping resolves the stopping-backend parameters.
func (c Config) stopping() StoppingConfig {
	sc := StoppingConfig{EITrigger: 0.05, Patience: 4}
	if c.Stopping != nil {
		if c.Stopping.EITrigger > 0 {
			sc.EITrigger = c.Stopping.EITrigger
		}
		if c.Stopping.Patience > 0 {
			sc.Patience = c.Stopping.Patience
		}
	}
	return sc
}

// hardware resolves the instance description.
func (c Config) hardware() Hardware {
	if c.Hardware != nil {
		return *c.Hardware
	}
	return dbsim.DefaultHardware()
}
