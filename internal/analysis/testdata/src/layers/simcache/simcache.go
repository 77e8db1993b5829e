// Package simcache is a layerdag fixture for the cache layer: the result
// cache serializes model results, so it may import the models, and neither
// the models nor the cores may import it back.
package simcache

import (
	"layers/isa"
)

// Key uses the model layer, a legal cache→model edge.
func Key(op isa.Opcode) int {
	return int(op)
}
