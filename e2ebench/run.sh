#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from the checkout this script sits
# in, then runs the benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Build output, the Go caches and the benchmark's fixtures all live
# under .bench_build in the checkout root, the working directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/config/go/telemetry"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Telemetry off, as `go telemetry off` would set it: otherwise the go
# command may start a detached telemetry process that outlives the run.
echo off > "$work/config/go/telemetry/mode"
go build -o "$work/bin/serve" ./cmd/serve >&2
(cd "$here" && go build -o "$work/bin/e2ebench" .) >&2
exec "$work/bin/e2ebench" -work "$work" "$@"
