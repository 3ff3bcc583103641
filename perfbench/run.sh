#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload replay-merge --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, binary, result and
# span files) goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
# GOTOOLCHAIN=local, GOPROXY=off and GOWORK=off: build with the installed toolchain
# and the module's own sources only, never fetching anything.
GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$rev" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
