#!/usr/bin/env bash
# Builds the session benchmark from this checkout's sources, unless the
# binary is newer than every source, and runs it with the given
# arguments. Build products, the Go build cache and the run's journals
# stay under .bench_build in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
bin="$out/tpnrbench"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry) in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if [ ! -x "$bin" ] || [ -n "$(find go.mod internal tpnrbench -newer "$bin" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
	(cd tpnrbench && go build -o "$bin" .)
fi
exec "$bin" -dir "$out/work" "$@"
