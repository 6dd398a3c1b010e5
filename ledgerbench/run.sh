#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash ledgerbench/run.sh --workload tenant-stream --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced spans stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/ledgerbench" && go build -o "$out/ledgerbench" .)
cd "$root"
exec "$out/ledgerbench" --spans "$out/spans" "$@"
