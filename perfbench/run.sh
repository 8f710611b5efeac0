#!/usr/bin/env bash
# Builds the allocation daemon and the benchmark program from the
# checkout's sources into .bench_build/, then runs the program with the
# arguments given (--workload, --seed, --seconds, --trace). Run from
# the root of the repository:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rallocd" ]; then
	echo "perfbench: run from the repository root; no rallocd sources here" >&2
	exit 2
fi
out="$root/.bench_build"
# The build cache, module path, temporary files and the toolchain's
# config directory all stay under .bench_build; nothing is fetched.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$out/tmp"
go build -o "$out/rallocd" ./cmd/rallocd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --rallocd "$out/rallocd" --out "$out/perfbench-out" "$@"
