#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload advise-warm --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's own state files all stay under
# .bench_build in the repository root.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
    echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
    exit 2
fi
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
