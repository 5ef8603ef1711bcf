#!/usr/bin/env bash
# Builds the host-clock benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload replay-warm --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go -C "$root/hostbench" build -o "$out/hostbench" .
exec "$out/hostbench" "$@"
