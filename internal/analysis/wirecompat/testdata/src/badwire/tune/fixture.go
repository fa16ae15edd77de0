// Package tune is the negative golden fixture for the wirecompat
// analyzer: a wire struct with exactly the naming breaks the analyzer
// exists to catch.
package tune

// SessionInfo grows an untagged exported field and a CamelCase tag.
type SessionInfo struct {
	ID          string `json:"id"`
	StartedAtMs int64  // want `exported field SessionInfo.StartedAtMs has no json tag`
	NodeCount   int    `json:"NodeCount"` // want `json tag "NodeCount" on SessionInfo.NodeCount is not snake_case`
}
