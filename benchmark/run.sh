#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build writes — Go's build cache, its
# temporary files, its telemetry counters — stays under .bench_build in the
# checkout's root, and nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$here"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
	go build -o "$build/tcoram-benchmark" .
)
cd "$root"
exec "$build/tcoram-benchmark" "$@"
