#!/usr/bin/env bash
# Builds userv6bench from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/userv6bench/run.sh --workload analyze-fused --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and everything the benchmark writes
# stay in .bench_build/ under the working directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The commit is looked up in the working directory's own repository
# only, and is "unknown" outside one.
rev=$(GIT_CEILING_DIRECTORIES="${PWD%/*}" git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
(cd bench/userv6bench && go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/userv6bench" .)
exec "$out/userv6bench" "$@"
