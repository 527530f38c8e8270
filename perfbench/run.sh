#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload bmp-burst --seed 1 --seconds 10 --trace 0
#
# Every build artefact and scratch file stays under .bench_build/ in the
# checkout; the Go build and module caches are pointed there too.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] && [ -f "$root/perfbench/go.mod" ] || {
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod required)" >&2
	exit 2
}
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
exec "$out/perfbench" --out "$out/perfbench-out" --commit "$commit" "$@"
