#!/bin/bash
# Builds silkbench and runs it with the arguments given, from the root of a
# checkout. Everything the Go toolchain writes — build cache, temporary
# files, its own settings — is kept under the checkout's .bench_build, next
# to the binary, so that a run touches nothing outside the checkout.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
out=$root/.bench_build/silkbench
mkdir -p "$out/tmp"
(
	export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
	export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
	export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
	go build -C "$root/cmd/silkbench" -o "$out/silkbench" .
)
exec "$out/silkbench" "$@"
