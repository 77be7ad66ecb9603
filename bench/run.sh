#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from any directory:
#
#   bash bench/run.sh --workload invoke_burst --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays inside the checkout, under bench/out/: the
# binary, the traces, and the Go build cache, build scratch space and
# toolchain counters (which would otherwise go to the home directory and
# /tmp). It exits
# non-zero, printing no result, where the repository's own module is not
# next to bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out/.tmp"
export GOCACHE="$out/.gocache" GOTMPDIR="$out/.tmp" XDG_CONFIG_HOME="$out/.config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
