#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout this script
# sits in, then runs it from the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload diagnose --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady 5
#
# Every build and run file stays under .bench_build/ in the checkout: the Go
# build cache, the temporary directory and the repositories a run creates.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
