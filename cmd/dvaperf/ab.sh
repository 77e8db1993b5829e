#!/usr/bin/env bash
# ab.sh — compare two revisions on the dvaperf workloads, on the same box.
#
#   bash cmd/dvaperf/ab.sh BASE CAND
#
# BASE and CAND are git revisions. Each is exported with `git archive` into a
# temporary directory and built with the benchmark code of the working tree,
# so both sides run identical benchmark code. Then ten pairs run every
# workload for the benchmark's own window (dvaperf's -seconds default,
# BENCHMARK.json's run_seconds), untraced for the end-to-end metrics and
# traced for the per-layer ones, operation times among them, with the pair
# number as the seed; odd pairs run BASE first and even pairs CAND first,
# back to back per workload, so machine drift hits both sides alike. Last,
# `dvaperf -compare` prints for every workload and metric each side's median
# and quartiles, the change of the medians and the share of pairs CAND won,
# with a verdict: a gain needs wins in nine tenths of the pairs and a median
# change larger than BASE's interquartile range; a regression is a median
# worse than BASE's by more than the metric's bound. The exit code is 1 when
# a metric regressed. Everything the script writes goes to a temporary
# directory, removed on exit; the Go build cache is the user's own.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE CAND" >&2
    exit 2
fi
base_rev=$1 cand_rev=$2
pairs=10
workloads="figures-cold sweep-warm serve-mix events"

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/run" "$tmp/res/base" "$tmp/res/cand"

for side in base cand; do
    rev=$base_rev
    [ "$side" = cand ] && rev=$cand_rev
    src="$tmp/src-$side"
    mkdir -p "$src"
    git -C "$root" archive "$rev" | tar -x -C "$src"
    rm -rf "$src/cmd/dvaperf"
    cp -R "$root/cmd/dvaperf" "$src/cmd/dvaperf"
    echo "ab.sh: building $side ($rev)" >&2
    GOTOOLCHAIN=local GOPROXY=off go -C "$src/cmd/dvaperf" build -o "$tmp/$side.bin" .
done

for ((i = 1; i <= pairs; i++)); do
    order="base cand"
    [ $((i % 2)) = 0 ] && order="cand base"
    for w in $workloads; do
        for trace in 0 1; do
            for side in $order; do
                echo "ab.sh: pair $i/$pairs $w trace=$trace $side" >&2
                TMPDIR="$tmp/run" "$tmp/$side.bin" -workload "$w" -seed "$i" -trace "$trace" \
                    -json "$tmp/res/$side/$w-$trace-$i.json" >/dev/null ||
                    echo "ab.sh: pair $i $w trace=$trace $side failed; -compare flags it" >&2
            done
        done
    done
done

"$tmp/cand.bin" -compare "$tmp/res/base" "$tmp/res/cand"
