#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# from the checkout root. Build caches and scratch files stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# HOME and XDG_CONFIG_HOME keep the go command's own state, such as its
# telemetry counters, inside the checkout as well. Traced runs call
# `go tool pprof` too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
