#!/bin/sh
# Hot-path trajectory recorder (make bench-hotpath): measure the
# BenchmarkHotPath refs/sec benchmark on this tree against a base
# commit, same host, and write BENCH_hotpath.json at the repo root, so
# every change records where the per-reference engine stands and what
# it moved.
#
# The script builds the base commit's root test binary in a temporary
# git worktree outside the checkout and this tree's test binary, then
# runs them alternately for N pairs (base first in odd pairs, this
# tree first in even ones), each run timing BenchmarkHotPath and
# BenchmarkHotPathScalar. The JSON records medians and min/max spread
# for both sides (see EXPERIMENTS.md for the schema).
#
# Usage: scripts/bench_hotpath.sh [benchtime] [pairs]
#   benchtime   go test -benchtime value per run (default 3s)
#   pairs       interleaved base/tree pairs (default 5)
#
# The base commit is HEAD when the tree has uncommitted changes (the
# change under test is the working tree), else HEAD~1 (the change
# under test is the last commit).
set -eu

GO=${GO:-go}
BENCHTIME=${1:-3s}
PAIRS=${2:-5}
cd "$(dirname "$0")/.."
root=$(pwd)

if git diff --quiet HEAD --; then base=HEAD~1; else base=HEAD; fi
base=$(git rev-parse --short "$base")

tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "bench-hotpath: building base $base (worktree) and this tree"
git worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && $GO test -c -o "$tmp/base.test" .)
$GO test -c -o "$tmp/tree.test" .

# run <side>: one benchmark run of that side's binary from its own
# source directory, results appended to $tmp/<side>.out.
run() {
    if [ "$1" = base ]; then dir="$tmp/base"; else dir=$root; fi
    (cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench 'BenchmarkHotPath(Scalar)?$' \
        -test.benchtime "$BENCHTIME" -test.benchmem) | tee -a "$tmp/$1.out" | grep '^BenchmarkHotPath'
}
i=1
while [ "$i" -le "$PAIRS" ]; do
    echo "bench-hotpath: pair $i/$PAIRS"
    if [ $((i % 2)) -eq 1 ]; then run base; run tree; else run tree; run base; fi
    i=$((i + 1))
done

# The recorded batch size is the engine's DefaultBatchSize (the
# benchmark runs with BatchSize 0, which selects it).
batch=$(sed -n 's/^const DefaultBatchSize = \([0-9][0-9]*\)$/\1/p' internal/experiments/runner.go)

# stats <file> <benchmark>: "median min max" of its ns/op column.
stats() {
    awk -v name="$2" '$1 ~ "^"name"(-[0-9]+)?$" { print $3 }' "$1" | sort -g | awk '
    { v[NR] = $1 }
    END {
        if (NR == 0) exit 1
        m = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
        print m, v[1], v[NR]
    }'
}
tree_hot=$(stats "$tmp/tree.out" BenchmarkHotPath)
base_hot=$(stats "$tmp/base.out" BenchmarkHotPath)
tree_scalar=$(stats "$tmp/tree.out" BenchmarkHotPathScalar)
allocs=$(awk '$1 ~ /^BenchmarkHotPath(-[0-9]+)?$/ { a = $7 } END { print a }' "$tmp/tree.out")

awk -v tree="$tree_hot" -v basev="$base_hot" -v scalar="$tree_scalar" \
    -v allocs="$allocs" -v batch="${batch:-256}" -v pairs="$PAIRS" -v benchtime="$BENCHTIME" \
    -v commit="$(git describe --always --dirty)" -v base="$base" '
BEGIN {
    split(tree, t, " "); split(basev, b, " "); split(scalar, s, " ")
    printf "{\n"
    printf "  \"refs_per_sec\": %.0f,\n", 1e9 / t[1]
    printf "  \"ns_per_ref\": %.1f,\n", t[1]
    printf "  \"ns_per_ref_min\": %.1f,\n", t[2]
    printf "  \"ns_per_ref_max\": %.1f,\n", t[3]
    printf "  \"allocs_per_ref\": %s,\n", allocs
    printf "  \"batch_size\": %d,\n", batch
    printf "  \"scalar_ns_per_ref\": %.1f,\n", s[1]
    printf "  \"speedup_vs_scalar\": %.2f,\n", s[1] / t[1]
    printf "  \"base_ns_per_ref\": %.1f,\n", b[1]
    printf "  \"base_ns_per_ref_min\": %.1f,\n", b[2]
    printf "  \"base_ns_per_ref_max\": %.1f,\n", b[3]
    printf "  \"speedup_vs_base\": %.2f,\n", b[1] / t[1]
    printf "  \"pairs\": %d,\n", pairs
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"base\": \"%s\",\n", base
    printf "  \"commit\": \"%s\"\n", commit
    printf "}\n"
}' > BENCH_hotpath.json

echo "bench-hotpath: wrote BENCH_hotpath.json:"
cat BENCH_hotpath.json
