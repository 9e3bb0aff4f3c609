#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Run it from the repository root:
#   bash perfbench/run.sh --workload customer-kv --seed 1 --seconds 10 --trace 0
# The build cache, the binary, data directories and results all stay under
# .bench_build/ in that directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0 GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
