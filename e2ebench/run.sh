#!/usr/bin/env bash
# Builds the end-to-end benchmark and hmtsd from this checkout and runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cheap-chain --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# Build output goes to stderr: the result must be the last line of stdout.
(cd "$here" && go build -o "$out/bin/e2ebench" . && go build -o "$out/bin/hmtsd" github.com/dsms/hmts/cmd/hmtsd) >&2
exec "$out/bin/e2ebench" "$@"
