#!/usr/bin/env bash
# The one command of the benchmark. It builds the program once into
# .bench_build/ at the root of the checkout (nothing is written outside the
# checkout, the Go build cache included) and runs it:
#
#   bench/run.sh [--seed N] [--runs K]    everything: each workload end to end and traced, each run in a
#                                         fresh process; prints the tables, writes bench/out/result.json
#                                         and bench/out/<workload>.trace.json
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run, one JSON line (the form BENCHMARK.json's command takes)
#   bench/run.sh layers | compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -C "$root/bench" -o "$build/bench" .
cd "$root"
case " $* " in
*" --workload "* | *" -workload "* | " layers "* | " compare "* | " all "*) exec "$build/bench" "$@" ;;
*) exec "$build/bench" all "$@" ;;
esac
