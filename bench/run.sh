#!/usr/bin/env bash
# Builds rpbench from source and runs it with the arguments given.
#
# This is BENCHMARK.json's command. It is run from the root of a checkout
# and keeps everything it writes inside it: the binary, the Go build cache,
# the compiler's temporary files, the go command's own configuration and
# telemetry, and the workloads' scratch files all live under .bench_build,
# which .gitignore names. The build is incremental, so only the first run in
# a checkout pays for it.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/home/.config/go/telemetry"
# With telemetry in its default local mode the go command counts into files
# and, once a day per home, leaves a child behind to write a report.
echo off > "$build/home/.config/go/telemetry/mode"

# The build sees nothing of the caller's Go set-up and nothing outside the
# checkout: no network (the module has no external dependencies, so the
# module cache stays empty), no workspace file of a parent directory, no
# inherited flags, no version-control stamping (the checkout need not be a
# repository, and may sit inside somebody else's), and a home directory of
# its own, because the go command keeps its env file and telemetry counters
# under the user's configuration directory.
(
	cd "$bench"
	env -u GOFLAGS \
		HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		GOTMPDIR="$build/gotmp" GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local \
		go build -buildvcs=false -o "$build/rpbench" ./rpbench
)

# Not exec: the build above ran as a child of this shell, and a process
# exec'd in its place would inherit the compiler's peak RSS in its
# RUSAGE_CHILDREN, which the tcp_* workloads report for their agent.
cd "$root"
"$build/rpbench" "$@"
