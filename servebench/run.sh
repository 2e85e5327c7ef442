#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of the repository:
#
#   bash servebench/run.sh --workload deadline-cpu --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --workload all --seed 1 --seconds 20 --trace 1
#   bash servebench/run.sh --compare --parent DIR --change DIR
#
# Everything the build and the runs write stays under .bench_build/ in
# the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off

go build -C "$root/servebench" -o "$build/servebench" . >&2
exec "$build/servebench" -root "$root" "$@"
