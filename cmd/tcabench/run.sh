#!/usr/bin/env bash
# Builds the benchmark and the stock figures binary from this checkout,
# then runs one workload:
#
#   bash cmd/tcabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds, caches or
# writes stays under .bench_build in that root; compiling is not timed.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# Keep the go tool's caches, temporary files and telemetry counters
# (kept under the user config directory) inside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/bin/tcabench" .) >&2
(cd "$root" && go build -o "$out/bin/figures" ./cmd/figures) >&2

exec "$out/bin/tcabench" -root "$root" -figures "$out/bin/figures" "$@"
