#!/usr/bin/env bash
# run.sh — build dvaperf from source and run it with the given flags.
#
# Run from the repository root:
#
#   bash cmd/dvaperf/run.sh -workload figures-cold -seed 1 -seconds 10 -trace 0
#
# Everything the build and the benchmark write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build): the Go build
# cache, the binary, and the temporary stores the workloads use.
set -euo pipefail

if [ ! -f cmd/dvaperf/go.mod ]; then
    echo "run.sh: run from the repository root" >&2
    exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C cmd/dvaperf build -o "$out/dvaperf" .
exec "$out/dvaperf" "$@"
