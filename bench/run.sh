#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout. The
# build cache, the module cache and the binary all stay under
# .bench_build/ in the checkout; nothing outside it is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-modcacherw
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
	cd "$root/bench" && go build -o "$build/bench" .
) >&2
cd "$root"
exec "$build/bench" "$@"
