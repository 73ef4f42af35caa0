#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of this checkout and
# runs it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload matrix-svc --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" -work "$out/work" -root "$root" "$@"
