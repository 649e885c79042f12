#!/usr/bin/env bash
# Builds bccserve and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload tier_churn --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the two binaries and the
# per-run store and bucket directories. The first run in a fresh checkout
# compiles the standard library into that cache; later runs reuse it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/bccserve" ./cmd/bccserve) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -bccserve "$out/bccserve" "$@"
