#!/usr/bin/env bash
# Lines of code added, removed and net per top-level directory, between a
# base revision and the working tree.
#
# Counts only non-blank, non-comment lines on the changed side of the diff:
# `//` lines in C/C++ sources, `#` lines in shell, Python and CMake files.
# Other files (docs, JSON) count every non-blank line. Files at the root of
# the repository are reported under ".". Untracked files are not counted;
# stage them first (`git add -N` is enough).
#
# Usage: scripts/loc_delta.sh <base-rev>
set -euo pipefail

BASE="${1:?usage: loc_delta.sh <base-rev>}"
cd "$(dirname "$0")/.."

git diff --no-color --no-renames --no-ext-diff -U0 "$BASE" -- | awk '
  function comment_prefix(path) {
    if (path ~ /\.(cc|h|cpp|hpp|c)$/) return "//"
    if (path ~ /\.(sh|py|cmake)$/ || path ~ /(^|\/)CMakeLists\.txt$/) return "#"
    return ""
  }
  /^diff --git / {
    path = substr($3, 3)
    slash = index(path, "/")
    dir = slash ? substr(path, 1, slash - 1) : "."
    prefix = comment_prefix(path)
    header = 1
    next
  }
  /^@@/ { header = 0; next }
  header { next }
  /^[+-]/ {
    line = substr($0, 2)
    sub(/^[ \t]+/, "", line)
    if (line == "") next
    if (prefix != "" && substr(line, 1, length(prefix)) == prefix) next
    seen[dir] = 1
    if (substr($0, 1, 1) == "+") added[dir]++; else removed[dir]++
  }
  END {
    for (d in seen) {
      printf "%-16s %8d %8d %+8d\n", d, added[d], removed[d], added[d] - removed[d]
      total_add += added[d]
      total_rm += removed[d]
    }
    printf "~total %8d %8d %+8d\n", total_add, total_rm, total_add - total_rm
  }
' | LC_ALL=C sort | awk '
  BEGIN { printf "%-16s %8s %8s %8s\n", "dir", "added", "removed", "net" }
  /^~total/ { printf "%-16s %8d %8d %+8d\n", "total", $2, $3, $4; next }
  { print }
'
