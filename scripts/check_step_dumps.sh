#!/usr/bin/env bash
# Pass-level differential debugging for the nine-step HLS lowering
# (the ROADMAP's "--dump-after driven differential debugging in CI").
#
# For both paper kernels: emit the shape-inferred stencil module, run the
# stencil-to-hls pipeline with --dump-after all, then
#   1. compare every step's dump digest against test/golden/steps.sum,
#      so a regression names the exact step that first diverged, and
#   2. diff the final dump byte-for-byte against test/golden/*.hls.mlir.
#
# The ablation variants (stencil-to-hls{variant=...}) are covered too:
# each variant pipeline's dumps are digested under "<kernel>@<variant>/",
# so a regression in an ablated pipeline names both the variant and the
# first step that diverged.  The final-module golden diff applies to the
# default pipeline only (the variants' end states are covered by their
# digests and by the functional parity tests).
#
# Each kernel[@variant] also digests its `shmls-compile --emit llvm`
# output (LLVM-IR after f++) as emit.ll, checked after the nine steps:
# a divergence that first shows there names the LLVM layer.
#
# Regenerate the digest file after an intentional pipeline change with:
#   scripts/check_step_dumps.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

# Tolerate (and ignore) --jobs so callers can pass one global flag set to
# every tool: the dumps here are IR-only, so --jobs cannot affect the
# digests.
UPDATE=0
args=("$@")
i=0
while [[ $i -lt ${#args[@]} ]]; do
  case "${args[$i]}" in
    --update) UPDATE=1 ;;
    --jobs|-j) i=$((i + 1)) ;; # consume the flag's value too
    --jobs=*|-j[0-9]*) ;;
    *)
      echo "usage: $0 [--update] (--jobs is accepted and ignored)" >&2
      exit 2
      ;;
  esac
  i=$((i + 1))
done

OPT=${OPT:-_build/default/bin/shmls_opt.exe}
COMPILE=${COMPILE:-_build/default/bin/shmls_compile.exe}
GOLDEN=test/golden
SUMS=$GOLDEN/steps.sum

KERNELS=("pw_advection 12x8x6" "tracer_advection 10x8x8")
VARIANTS=("no-split" "no-pack" "no-split+no-pack" "cu=2")

if [[ ! -x $OPT || ! -x $COMPILE ]]; then
  echo "error: build the binaries first (dune build)" >&2
  exit 2
fi

# the nine hls-* steps in pipeline order, read off their "step N:"
# descriptions
STEPS=($("$OPT" --list-passes \
  | sed -n 's/^\(hls-[a-z-]*\) *step \([0-9]*\):.*/\2 \1/p' \
  | sort -n | cut -d' ' -f2))
if [[ ${#STEPS[@]} -ne 9 ]]; then
  echo "error: expected nine hls-* steps in --list-passes, got ${#STEPS[@]}" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
DIRS=() # one dump directory per kernel[@variant], in run order

dump () { # kernel grid [variant]
  local name=$1 grid=$2 variant=${3:-}
  local dir pipe vflag=()
  if [[ -z $variant ]]; then
    dir="$tmp/$name"
    pipe="stencil-to-hls"
  else
    dir="$tmp/$name@$variant"
    pipe="stencil-to-hls{variant=$variant}"
    vflag=(--variant "$variant")
  fi
  mkdir -p "$dir"
  DIRS+=("${dir#"$tmp/"}")
  "$COMPILE" "$name" --grid "$grid" --emit stencil \
    | tail -n +2 > "$dir/input.stencil.mlir"
  "$OPT" -p "$pipe" --verify-each --dump-after all --dump-dir "$dir" \
    "$dir/input.stencil.mlir" > /dev/null
  "$COMPILE" "$name" --grid "$grid" "${vflag[@]}" --emit llvm \
    | tail -n +2 > "$dir/emit.ll"
}

for entry in "${KERNELS[@]}"; do
  dump $entry
  for v in "${VARIANTS[@]}"; do
    dump $entry "$v"
  done
done

if [[ $UPDATE -eq 1 ]]; then
  (cd "$tmp" && sha256sum ./*/*.after.mlir ./*/emit.ll | LC_ALL=C sort -k2) \
    > "$SUMS"
  echo "rewrote $SUMS"
  exit 0
fi

status=0

# 1. per-step digests.  sha256sum reports failures in the order of
#    $SUMS, which is sorted by path, not by step; name the first
#    diverging step in pipeline order for each kernel[@variant], the
#    LLVM emit last
if ! (cd "$tmp" && sha256sum -c --quiet "$OLDPWD/$SUMS") > "$tmp/sums.out" 2>&1
then
  status=1
  echo "step-level divergence (vs $SUMS):"
  sed 's/^/  /' "$tmp/sums.out"
  for dir in "${DIRS[@]}"; do
    for step in "${STEPS[@]}" llvm-emit; do
      file="$step.after.mlir"
      [[ $step == llvm-emit ]] && file=emit.ll
      if grep -qF "./$dir/$file: FAILED" "$tmp/sums.out"; then
        echo "first diverging step for $dir: $step"
        break
      fi
    done
  done
fi

# 2. final output must match the committed golden HLS modules
for entry in "${KERNELS[@]}"; do
  set -- $entry
  name=$1
  if ! diff -u "$GOLDEN/$name.hls.mlir" "$tmp/$name/hls-axi-bundles.after.mlir" \
      > "$tmp/$name.diff"; then
    status=1
    echo "final HLS module for $name differs from $GOLDEN/$name.hls.mlir:"
    head -40 "$tmp/$name.diff" | sed 's/^/  /'
  fi
done

if [[ $status -eq 0 ]]; then
  echo "step dumps match $SUMS and the golden HLS modules"
fi
exit $status
