#!/usr/bin/env bash
# Builds the end-to-end benchmark harness and the incgraphd daemon from
# the sources of the checkout it is run in, then runs the harness.
#
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload ingest|cluster --seed N \
#       --seconds S --trace 0|1
#
# Build outputs, the Go build cache and every run's scratch files stay
# under .bench_build/ in the repository root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

go -C "$here" build -o "$out/e2ebench" .
go -C "$here" build -o "$out/incgraphd" incgraph/cmd/incgraphd
exec "$out/e2ebench" -daemon "$out/incgraphd" -workdir "$out" "$@"
