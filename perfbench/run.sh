#!/usr/bin/env bash
# Builds cmd/serve and the benchmark driver from the checkout this script
# sits in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload hot-stream --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --repeat 10 --workload all --seconds 12
#   bash perfbench/run.sh --smoke
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout, so the script reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/serve" ]; then
	echo "perfbench: $root holds no intellisphere source tree (need go.mod and cmd/serve)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# Everything the go command would keep in the home directory (build and
# module caches, GOPATH, its configuration) stays under .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$out/bin/serve" ./cmd/serve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --serve "$out/bin/serve" --work "$out/run" "$@"
