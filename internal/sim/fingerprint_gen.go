// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `make generate`; freshness is enforced by `make verify` and CI.
const ModelFingerprint = "mh1:b1d50e0faf41b6ee35a84786a2306ded1bfd50daa254c8d79882fb1400fa271d"
