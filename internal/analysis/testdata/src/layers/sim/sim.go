// Package sim is a layerdag fixture for the model layer. Its imports of the
// serving and cache layers are the inversions the analyzer exists to
// reject: model code must never depend on the machinery that schedules its
// runs or persists their results.
package sim

import (
	"layers/isa"
	"layers/server"   // want "package layers/sim .layer model. imports layers/server .layer serving.: model may import only model"
	"layers/simcache" // want "package layers/sim .layer model. imports layers/simcache .layer cache.: model may import only model"
)

// Cycles exercises every import.
func Cycles(op isa.Opcode) int {
	return server.Serve(op) + simcache.Key(op)
}
