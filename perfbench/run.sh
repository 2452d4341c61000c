#!/usr/bin/env bash
# Builds the benchmark and the cmd/analyzed daemon from the checkout it is
# run from, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binaries, cache stores, traces and the
# saved counters that same-seed reruns are compared against.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The benchmark module replaces the repository module with its parent
# directory, so this build fails when the benchmark stands alone.
go -C "$here" build -o "$out/bin/" . repro/cmd/analyzed

exec "$out/bin/perfbench" --root "$root" --daemon "$out/bin/analyzed" "$@"
