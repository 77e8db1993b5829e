package layerdag_test

import (
	"testing"

	"decvec/internal/analysis"
	"decvec/internal/analysis/layerdag"
)

func TestLayerDAG(t *testing.T) {
	analysis.RunTest(t, "../testdata", layerdag.Analyzer,
		"layers/isa", "layers/server", "layers/simcache", "layers/sim", "layers/dva", "layers/mystery")
}
