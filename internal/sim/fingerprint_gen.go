// Code generated by "go run ./cmd/modelhash"; DO NOT EDIT.

package sim

// ModelFingerprint identifies the exact source of the simulator model
// packages (dva, ref, ooo, ideal, disamb, queue, mem, isa, trace, workload,
// tracegen, sim). The persistent result cache mixes it into every key, so
// editing any model source invalidates all cached results. Regenerate with
// `make generate`; freshness is enforced by `make verify` and CI.
const ModelFingerprint = "mh1:813204c3c6a966803facd508a068dcb32722b564d59435af28167af200c71b21"
