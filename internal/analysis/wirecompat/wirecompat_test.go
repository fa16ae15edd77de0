package wirecompat_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/wirecompat"
)

func TestWirecompat(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "tune", "badwire/tune", "badwire/internal/core")
}
