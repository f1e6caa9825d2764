#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <bulk|stream|churn|wan> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs and caches stay under
# .bench_build/ in the checkout; nothing is fetched (the module needs only
# the standard library and the parent module, replaced by path).
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
