#!/usr/bin/env bash
# Builds the host-wall benchmark from this checkout and runs it; every
# argument is passed through (see bench/perf/README.md).
#   bash bench/perf/run.sh --workload cold-plan --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
