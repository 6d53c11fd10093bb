#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from
# the checkout root, forwarding every argument:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# traced run's spans and CPU profiles.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # keeps Go telemetry inside the checkout
export PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
