// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `make generate`; freshness is enforced by `make verify` and CI.
const ModelFingerprint = "mh1:3b8e12b61ebbf1110d74196baa7efaab4fcefd9dbc23b68359bb8710f59178b1"
