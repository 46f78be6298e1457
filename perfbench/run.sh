#!/usr/bin/env bash
# Builds the certification benchmark from the sources of the checkout it
# sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporaries, the
# go command's configuration) goes under .bench_build/ at the checkout
# root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# No telemetry: no counter files and no helper process outliving the build.
[ -f "$build/config/go/telemetry/mode" ] || go telemetry off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
