#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with
# the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload paper_eval --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh run --seed 1 --out set-a.jsonl
#
# The build stays inside the checkout (_build, no shared dune cache) and
# its messages go to stderr, so the benchmark's result line is the last
# line of standard output.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display quiet ./bench/e2e/shmls_bench.exe 1>&2
exec ./_build/default/bench/e2e/shmls_bench.exe "$@"
