// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `make generate`; freshness is enforced by `make verify` and CI.
const ModelFingerprint = "mh1:f05078ef32a0ea7647c81f7240e8405f0e2d3b2fd34c7063afbe159bd2e547e4"
