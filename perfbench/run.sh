#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), Go's build cache included.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
commit=$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
