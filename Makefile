# Development entry points. `make verify` is the tier-1 gate: it must pass
# before every commit.

GO ?= go

.PHONY: build test vet lint race bench profile verify generate loadtest sweeptest

build:
	$(GO) build ./...

# generate regenerates internal/sim/fingerprint_gen.go, the hash of every
# simulator-model source file that versions the persistent result cache.
# Run after any model edit; `make verify` fails if it is stale.
generate:
	$(GO) run ./cmd/modelhash

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs declint, the custom static-analysis suite that enforces the
# simulator invariants (enum exhaustiveness, determinism, queue discipline,
# the package-layer DAG, context discipline, hot-path allocation hygiene).
# Exits 0 clean / 1 findings / 2 analysis failure. See DESIGN.md "Checked
# invariants".
lint:
	$(GO) run ./cmd/declint ./...

race:
	$(GO) test -race ./...

# bench is the performance gate CI runs: the merge-base of BASE and HEAD
# against the working tree, in twenty interleaved pairs on one machine, into
# BENCH_CI.json. It fails on a figure geomean paired speedup below 0.95, a
# figure's allocs/op more than 2% up, or a failed benchmark. See
# bench/gate.sh and EXPERIMENTS.md "Reproducing".
BASE ?= origin/main
bench:
	bash bench/gate.sh $(BASE)

# loadtest stands up a throwaway dvad daemon and storms it with dvadload:
# identical concurrent requests must coalesce into at most one simulation,
# a mixed storm exercises the admission gate, and SIGTERM must drain
# gracefully. Prints latency percentiles. See DESIGN.md "Serving".
loadtest:
	GO=$(GO) sh bench/loadtest.sh

# sweeptest stands up two throwaway dvad workers and drives a 1044-cell
# dvasweep through them: zero cells may re-shard, the digest must match an
# in-process run byte-for-byte, and a warm rerun against restarted workers
# must answer every cell from each worker's disk cache (cache-affine
# sharding). See DESIGN.md "Distributed sweeps".
sweeptest:
	GO=$(GO) sh bench/sweeptest.sh

# profile produces pprof CPU and heap profiles of a full dvabench run.
# Inspect with: go tool pprof dvabench.bin cpu.pprof
profile:
	$(GO) build -o dvabench.bin ./cmd/dvabench
	./dvabench.bin -q -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "profiles written: cpu.pprof mem.pprof (go tool pprof dvabench.bin cpu.pprof)"

# verify mirrors CI's build, format, vet, cross-build, fingerprint, lint and
# race steps. The cross-build compiles the !linux result-cache read that no
# Linux build sees. The cmd/dvaperf benchmark is a module of its own, so
# ./... skips it; it gets its own vet and race run.
verify:
	$(GO) build ./...
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/simcache && GOOS=darwin $(GO) build ./... && GOOS=windows $(GO) build ./...
	$(GO) run ./cmd/modelhash -check
	$(GO) run ./cmd/declint ./...
	$(GO) test -race ./...
	cd cmd/dvaperf && $(GO) vet . && $(GO) test -race .
