// Package dva is a layerdag fixture for the core layer: cores may import
// models only — not the result cache, not the serving layer, not
// unassigned packages, and (by omission from the allowed table) not each
// other.
package dva

import (
	"layers/isa"
	"layers/server"   // want "package layers/dva .layer core. imports layers/server .layer serving.: core may import only model"
	"layers/simcache" // want "package layers/dva .layer core. imports layers/simcache .layer cache.: core may import only model"

	_ "layers/mystery" // declint:allow layerdag — fixture: suppressed unassigned-package edge
)

// Step exercises the legal model import and the illegal serving and cache
// imports.
func Step(op isa.Opcode) int {
	return server.Serve(op) + simcache.Key(op) + int(op)
}
