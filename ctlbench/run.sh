#!/usr/bin/env bash
# Builds the control-plane benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash ctlbench/run.sh --workload deploy-backlog --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache, journals and span files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/ctlbench" && go build -o "$out/ctlbench" .) >&2
exec "$out/ctlbench" --out "$out" "$@"
