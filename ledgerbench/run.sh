#!/usr/bin/env bash
# Builds the ledger benchmark from the sources of the checkout it sits
# in and runs it with the given arguments. Run it from the checkout
# root:
#
#   bash ledgerbench/run.sh --workload tick_fft --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain
# config) lands under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
