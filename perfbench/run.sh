#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload oltp-p8 --seed 1 --seconds 20 --trace 0
#
# Every build product and cache lives under .bench_build in the current
# directory, so the run reads and writes nothing outside the checkout
# apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the simulator sources are missing here" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off
export PPROF_TMPDIR=$out/tmp

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
