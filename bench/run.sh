#!/usr/bin/env bash
# Build lokibench from source into the checkout's .bench_build/, then run it
# in this process (exec): one process, nothing left behind. Arguments are
# passed through; see README.md. The Go build cache and temporary files are
# kept under .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -ldflags "-X main.commit=$rev" -o "$build/lokibench" .
)
cd "$root"
exec "$build/lokibench" "$@"
