#!/usr/bin/env bash
# Builds cmd/dsed and the perfbench harness from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-start --seed 1 --seconds 20 --trace 0
#
# Every build product, model cache, daemon log and trace stays under
# .bench_build in the checkout. The last line of standard output is the
# JSON result; progress and a readable summary go to standard error.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dsed" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/dsed or perfbench not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's telemetry and env file in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/dsed" ./cmd/dsed >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dsed "$out/dsed" -state "$out" "$@"
