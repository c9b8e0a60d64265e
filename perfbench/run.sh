#!/usr/bin/env bash
# Builds the QATK/QUEST benchmark from the checkout's sources and runs one
# workload:
#
#   bash perfbench/run.sh --workload fig11-bow --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache) and every temporary file lands
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The last
# line of standard output is the JSON result; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export PERFBENCH_TMP="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
