#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given arguments (see perfbench/README.md). Every build artifact, the Go
# build cache and the run's temporary files stay under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build at the checkout root.
set -euo pipefail
build_dir=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build_dir/gotmp"
build_dir=$(cd "$build_dir" && pwd)
export GOCACHE="$build_dir/gocache" GOPATH="$build_dir/gopath" \
	GOTMPDIR="$build_dir/gotmp" XDG_CONFIG_HOME="$build_dir/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build_dir/perfbench" .
exec "$build_dir/perfbench" -build-dir "$build_dir" "$@"
