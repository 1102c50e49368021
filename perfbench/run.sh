#!/usr/bin/env bash
# Builds the whilepar benchmark from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload spec-strips --seed 1 --seconds 10 --trace 0
# Every build artifact (Go build cache, binary, Chrome trace) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
export GOFLAGS=-buildvcs=false GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -trace-dir "$out" "$@"
