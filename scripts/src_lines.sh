#!/usr/bin/env bash
# Lines of product code: for each Rust source file, the lines before its
# first `#[cfg(test)]` (the whole file when it has none), so comments and
# docs count and test modules do not.
#
#   scripts/src_lines.sh                  workspace total (crates/*/src)
#   scripts/src_lines.sh FILE...          per-file table, then the total
#
# Run from the repository root (or a clone of another commit, for a
# before/after pair).
set -euo pipefail

count() {
    for f in "$@"; do
        n=$(grep -n '#\[cfg(test)\]' "$f" | head -1 | cut -d: -f1 || true)
        [ -z "$n" ] && n=$(($(wc -l < "$f") + 1))
        echo "$f $((n - 1))"
    done
}

if [ "$#" -eq 0 ]; then
    shopt -s nullglob
    count crates/*/src/*.rs crates/*/src/*/*.rs | awk '{s += $2} END {print s}'
else
    count "$@" | awk '{s += $2; print} END {print s}'
fi
