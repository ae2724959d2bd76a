#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the build
# writes (Go build cache, module cache, the binary, scratch files) goes under
# .bench_build/ in the current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (need ./go.mod and ./bench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$out/proteus-bench" .)
exec "$out/proteus-bench" "$@"
