#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig7_paged --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, temporary files, the binary and
# live_churn's data directories.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

# The commit is read here rather than stamped by the Go toolchain, which
# fails the build when it finds a repository it cannot query.
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

go -C perfbench build -buildvcs=false -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --commit "$commit" "$@"
