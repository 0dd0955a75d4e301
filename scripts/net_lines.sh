#!/usr/bin/env bash
# Net OCaml line change per directory against a base commit.
#
#   scripts/net_lines.sh BASE
#
# Reads `git diff --numstat BASE` (the working tree against BASE, so
# committed, staged and unstaged edits count; untracked files do not)
# and prints the .ml/.mli lines added, removed and net in lib/, bin/,
# bench/ and scripts/, then their total.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi
if ! git rev-parse --verify --quiet "$1^{commit}" >/dev/null; then
  echo "$0: $1 is not a commit" >&2
  exit 2
fi

git diff --numstat --no-renames "$1" -- lib bin bench scripts |
  awk -F '\t' '
    $3 ~ /\.mli?$/ {
      split($3, path, "/")
      added[path[1]] += $1
      removed[path[1]] += $2
    }
    END {
      printf "%-8s %8s %8s %8s\n", "dir", "added", "removed", "net"
      n = split("lib bin bench scripts", dirs, " ")
      for (i = 1; i <= n; i++) {
        d = dirs[i]
        printf "%-8s %8d %8d %+8d\n", d "/", added[d], removed[d], added[d] - removed[d]
        ta += added[d]
        tr += removed[d]
      }
      printf "%-8s %8d %8d %+8d\n", "total", ta, tr, ta - tr
    }'
