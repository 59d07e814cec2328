#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's source and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload query_hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the checkout, and nothing is fetched: the benchmark has
# no dependencies outside the repository and the standard library.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" -workdir "$out" "$@"
