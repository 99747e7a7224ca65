#!/bin/sh
# Non-test line count of the workspace: every line of each
# crates/*/src/**/*.rs (shims excluded) above its first `#[cfg(test)]`.
# The simplicity issues quote these numbers; CI prints the total.
#
#   scripts/nontest-loc.sh           total
#   scripts/nontest-loc.sh --files   per file, then the total
set -eu
cd "$(dirname "$0")/.."

total=0
for f in $(find crates/*/src -name '*.rs' | grep -v '^crates/shims/' | sort); do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | wc -l)
    total=$((total + n))
    if [ "${1:-}" = "--files" ]; then
        printf '%6d %s\n' "$n" "$f"
    fi
done
printf '%6d total\n' "$total"
