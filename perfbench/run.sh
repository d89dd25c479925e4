#!/usr/bin/env bash
# Builds coltd and the benchmark from source under .bench_build, then
# runs the benchmark from the repository root. Every argument is passed
# through, e.g.
#
#   bash perfbench/run.sh --workload cold-fig18 --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files also live under .bench_build,
# so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -o "$out/bin/coltd" ./cmd/coltd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -coltd "$out/bin/coltd" "$@"
