#!/usr/bin/env bash
# Bench regression gate: compare a fresh bechamel run against the
# committed baseline and fail on significant slowdowns.
#
#   dune exec bench/main.exe -- bechamel-smoke --json bench-smoke.json
#   scripts/check_bench_regression.sh bench-smoke.json
#
# Only rows present in BOTH files are compared (the smoke run is a
# subset of the full suite behind BENCH_pipeline.json), and a row fails
# when it is more than TOLERANCE times slower than the baseline.  The
# default tolerance is deliberately loose (1.25x) because CI machines
# differ from the one that produced the baseline; it catches order-of-
# magnitude regressions (an accidental O(n^2) hot path), not percent
# drift.  Override with TOLERANCE=2.0 etc.
set -euo pipefail
cd "$(dirname "$0")/.."

NEW=${1:-bench-smoke.json}
BASELINE=${2:-BENCH_pipeline.json}
TOLERANCE=${TOLERANCE:-1.25}

for f in "$NEW" "$BASELINE"; do
  if [[ ! -f $f ]]; then
    echo "error: $f not found" >&2
    echo "usage: $0 [new.json] [baseline.json]" >&2
    exit 2
  fi
done

# Pull "name": ns rows out of the results_ns_per_run block of a
# BENCH_pipeline-format JSON file (one row per line: name<TAB>ns).
rows () {
  awk '
    /"results_ns_per_run"/ { in_block = 1; next }
    in_block && /^[[:space:]]*\}/ { in_block = 0 }
    in_block {
      if (match($0, /"[^"]+"/)) {
        name = substr($0, RSTART + 1, RLENGTH - 2)
        rest = substr($0, RSTART + RLENGTH)
        if (match(rest, /[0-9.]+/))
          printf "%s\t%s\n", name, substr(rest, RSTART, RLENGTH)
      }
    }' "$1" | LC_ALL=C sort
}

rows "$NEW" > /tmp/bench_new.$$
rows "$BASELINE" > /tmp/bench_base.$$
trap 'rm -f /tmp/bench_new.$$ /tmp/bench_base.$$' EXIT

status=0
compared=0
while IFS=$'\t' read -r name new_ns base_ns; do
  compared=$((compared + 1))
  verdict=$(awk -v n="$new_ns" -v b="$base_ns" -v t="$TOLERANCE" \
    'BEGIN { printf "%.2f %s", n / b, (n > b * t) ? "FAIL" : "ok" }')
  ratio=${verdict% *}
  if [[ ${verdict#* } == FAIL ]]; then
    status=1
    printf 'REGRESSION  %-45s %14.1f ns vs %14.1f ns (%sx > %sx)\n' \
      "$name" "$new_ns" "$base_ns" "$ratio" "$TOLERANCE"
  else
    printf 'ok          %-45s %14.1f ns vs %14.1f ns (%sx)\n' \
      "$name" "$new_ns" "$base_ns" "$ratio"
  fi
done < <(join -t $'\t' /tmp/bench_new.$$ /tmp/bench_base.$$)

if [[ $compared -eq 0 ]]; then
  echo "error: no common benchmark rows between $NEW and $BASELINE" >&2
  exit 2
fi

if [[ $status -eq 0 ]]; then
  echo "bench regression gate: $compared rows within ${TOLERANCE}x of $BASELINE"
else
  echo "bench regression gate FAILED (tolerance ${TOLERANCE}x vs $BASELINE)" >&2
fi

# ------------------------------------------------------------------
# Sweep-scaling gate (within the NEW run, so both rows come from the
# same machine): the adaptive parallel sweep must never be slower than
# the sequential one beyond SWEEP_TOLERANCE.
#   - domains_available > 1: parallelism must at least not hurt
#     (jobsN <= jobs1 * tol); real speedups show up as ratios < 1.
#   - domains_available == 1: the adaptive pool must be a no-op
#     (jobsN within tol of jobs1 in both directions).
SWEEP_TOLERANCE=${SWEEP_TOLERANCE:-1.05}

val () { # val <file> <row-name> -> ns (empty if absent)
  awk -v key="\"$2\"" '
    index($0, key) {
      rest = substr($0, index($0, key) + length(key))
      if (match(rest, /[0-9.]+/)) { print substr(rest, RSTART, RLENGTH); exit }
    }' "$1"
}

jobs1=$(val "$NEW" "shmls/sweep_verify_batched_jobs1")
jobsN=$(val "$NEW" "shmls/sweep_verify_batched_jobsN")
domains=$(val "$NEW" "domains_available")

if [[ -n $jobs1 && -n $jobsN && -n $domains ]]; then
  ratio=$(awk -v n="$jobsN" -v b="$jobs1" 'BEGIN { printf "%.2f", n / b }')
  if awk -v n="$jobsN" -v b="$jobs1" -v t="$SWEEP_TOLERANCE" \
      'BEGIN { exit !(n > b * t) }'; then
    echo "SWEEP-SCALING REGRESSION: jobsN ${jobsN} ns vs jobs1 ${jobs1} ns" \
      "(${ratio}x > ${SWEEP_TOLERANCE}x, domains_available=${domains})" >&2
    status=1
  elif [[ $domains -le 1 ]] && awk -v n="$jobsN" -v b="$jobs1" \
      -v t="$SWEEP_TOLERANCE" 'BEGIN { exit !(b > n * t) }'; then
    # on a one-domain box the pool must be a no-op: a jobsN run much
    # FASTER than jobs1 means the sequential path grew overhead
    echo "SWEEP-SCALING ANOMALY: on a 1-domain machine jobs1 ${jobs1} ns" \
      "is slower than jobsN ${jobsN} ns beyond ${SWEEP_TOLERANCE}x" \
      "(ratio ${ratio}x) -- the sequential path is not a no-op" >&2
    status=1
  else
    echo "sweep-scaling gate: jobsN/jobs1 = ${ratio}x" \
      "(tolerance ${SWEEP_TOLERANCE}x, domains_available=${domains})"
  fi
else
  echo "sweep-scaling gate: rows missing from $NEW, skipped" >&2
fi

# ------------------------------------------------------------------
# Tune-throughput gate: the design-space search driver's end-to-end row
# must be present in the NEW run whenever the baseline tracks it (its
# slowdown bound is the generic common-row comparison above; this check
# catches the row silently disappearing from the smoke suite).
tbase=$(val "$BASELINE" "shmls/tune_search_throughput")
tnew=$(val "$NEW" "shmls/tune_search_throughput")

if [[ -n $tbase && -z $tnew ]]; then
  echo "TUNE-THROUGHPUT ROW MISSING: $BASELINE tracks" \
    "shmls/tune_search_throughput but $NEW does not carry it" >&2
  status=1
elif [[ -n $tnew ]]; then
  echo "tune-throughput gate: row present (${tnew} ns/run)"
else
  echo "tune-throughput gate: row untracked in $BASELINE, skipped" >&2
fi

# ------------------------------------------------------------------
# Multi-device gate: the 1/2/4-slab ensemble-estimate rows must be
# present in the NEW run whenever the baseline tracks them (their
# slowdown bound is the generic common-row comparison above; this
# catches the scaling rows silently disappearing from the smoke suite).
for slabs in 1 2 4; do
  mdbase=$(val "$BASELINE" "shmls/multi_device_scaling_${slabs}slab")
  mdnew=$(val "$NEW" "shmls/multi_device_scaling_${slabs}slab")
  if [[ -n $mdbase && -z $mdnew ]]; then
    echo "MULTI-DEVICE ROW MISSING: $BASELINE tracks" \
      "shmls/multi_device_scaling_${slabs}slab but $NEW does not carry it" >&2
    status=1
  elif [[ -n $mdnew ]]; then
    echo "multi-device gate: ${slabs}-slab row present (${mdnew} ns/run)"
  else
    echo "multi-device gate: ${slabs}-slab row untracked in $BASELINE," \
      "skipped" >&2
  fi
done

exit $status
