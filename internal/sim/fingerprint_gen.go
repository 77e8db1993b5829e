// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `make generate`; freshness is enforced by `make verify` and CI.
const ModelFingerprint = "mh1:c5f24053feef7b072a5969a5c375a847a03729991d770ee98c5f218174c9ab25"
