#!/usr/bin/env bash
# Builds the benchmark command from source and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload cold-codesign --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary build files, the binary,
# the per-run store directories, and trace files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/bench" ]]; then
	echo "run.sh: run from the repository root (no go.mod or bench/ here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gotmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C bench build -o "$build/nvmxbench" ./nvmxbench
exec "$build/nvmxbench" -dir "$build" "$@"
