#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload plan-interactive --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export TMPDIR=$out/tmp
export GOTMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
