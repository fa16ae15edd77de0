// Package core is the negative fixture for a package whose types reach
// the wire through aliases: one `json:"-"` field makes the struct wire
// surface, so its untagged tunable would decode CamelCase.
package core

type Options struct {
	Beta      float64 // want `exported field Options.Beta has no json tag`
	Epsilon   float64 `json:"epsilon"`
	UseSafety bool    `json:"-"`
}
