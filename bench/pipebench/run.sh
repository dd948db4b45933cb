#!/usr/bin/env bash
# Builds pipebench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/pipebench/run.sh --workload suite-1x --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, spill files,
# the daemon's store) goes under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd bench/pipebench && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
