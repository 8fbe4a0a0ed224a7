#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
