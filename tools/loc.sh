#!/usr/bin/env sh
# Print the non-test, non-blank Rust lines of each crate in the repository
# (the "net lines" every change reports).
#
# A crate's count covers its src/ files, each up to its first
# `#[cfg(test)]` line; `tests.rs` files (in-crate test modules kept in a
# file of their own), tests/, benches/, examples/ and the dev-dependency
# stand-ins under crates/shims/ are not counted.
#
# Usage: sh tools/loc.sh   (from anywhere inside the repository)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' ! -name tests.rs -print | sort | while read -r f; do
        awk '/#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in . crates/* perfbench; do
    case "$dir" in crates/shims) continue ;; esac
    [ -d "$dir/src" ] || continue
    n=$(count "$dir")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$dir"
done
printf '%7d  total\n' "$total"
