#!/usr/bin/env bash
# Builds the benchmark and the xmlvalid/xsdvalid commands from source, then
# runs one benchmark run. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload http-validate --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binaries and the generated
# corpus. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS=-mod=mod GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

# The benchmark module replaces dregex with the repository root, so the
# build fails, and nothing is run, when the repository's sources are absent.
(cd "$root/perfbench" && go build -o "$out/bin/" . dregex/cmd/xmlvalid dregex/cmd/xsdvalid) >&2

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
