#!/usr/bin/env bash
# gate.sh — the performance gate (`make bench`): the merge-base against the
# working tree, on one box.
#
#   bash bench/gate.sh [REV]        (REV defaults to origin/main)
#
# The merge-base of REV and HEAD is exported with `git archive`; it and the
# working tree are each built into a root-package test binary with their own
# PGO profile (cmd/dvabench/default.pgo). Both binaries then run every
# benchmark once (-benchtime 1x, -benchmem) in ten pairs, odd pairs base
# first and even pairs head first, so machine drift hits both sides alike.
# cmd/benchjson pairs the runs, writes BENCH_CI.json and fails the gate when
# the figure benchmarks' geomean paired speedup is below 0.95 or a figure
# benchmark's median allocs/op grew by more than 2%. A benchmark that fails
# fails the gate. Everything else the script writes goes to a temporary
# directory, removed on exit; the Go build cache is the user's own.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
pairs=10
root=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$root" merge-base "${1:-origin/main}" HEAD)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/run"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"

export GOTOOLCHAIN=local GOPROXY=off
declare -A dir=([base]="$tmp/base" [head]="$root")
for side in base head; do
    echo "gate.sh: building $side (${dir[$side]})" >&2
    go -C "${dir[$side]}" test -c -pgo=cmd/dvabench/default.pgo -o "$tmp/$side.test" .
done

for ((i = 1; i <= pairs; i++)); do
    order="base head"
    [ $((i % 2)) = 0 ] && order="head base"
    for side in $order; do
        echo "gate.sh: pair $i/$pairs $side" >&2
        (cd "${dir[$side]}" && TMPDIR="$tmp/run" "$tmp/$side.test" -test.run '^$' -test.bench . \
            -test.benchtime 1x -test.benchmem -test.timeout 10m) | tee -a "$tmp/$side.txt"
    done
done

go -C "$root" run ./cmd/benchjson -base "$tmp/base.txt" -head "$tmp/head.txt" -out "$root/BENCH_CI.json"
