#!/usr/bin/env bash
# Non-test line count of Rust source files: the lines of each file
# before its first `#[cfg(test)]` (the whole file if it has none).
#
#   scripts/loc.sh FILE_OR_DIR...
#
# A directory stands for every `.rs` file under it. Prints one
# "<count> <file>" line per file, then "<total> total".
set -euo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 FILE_OR_DIR..." >&2
  exit 2
fi
files=()
for arg in "$@"; do
  if [ -d "$arg" ]; then
    while IFS= read -r f; do files+=("$f"); done < <(find "$arg" -name '*.rs' | LC_ALL=C sort)
  else
    files+=("$arg")
  fi
done
total=0
for f in "${files[@]}"; do
  n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
  total=$((total + n))
  printf '%6d %s\n' "$n" "$f"
done
printf '%6d total\n' "$total"
