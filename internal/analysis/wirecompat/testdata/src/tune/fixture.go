// Package tune is the positive golden fixture for the wirecompat
// analyzer: every exported field of every wire struct is tagged and
// every tag is snake_case, so the analyzer must stay silent.
package tune

type Advice struct {
	Role         string             `json:"role"`
	Config       map[string]float64 `json:"config"`
	RolloutPhase string             `json:"rollout_phase,omitempty"`
}

type SessionInfo struct {
	ID string `json:"id"`
}

// Stats has no json tags anywhere: it is not wire surface, so field
// naming is unconstrained.
type Stats struct {
	Hits   int
	Misses int
}
