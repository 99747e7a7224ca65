#!/bin/sh
# Non-test line count of the workspace: every line of each
# crates/*/src/**/*.rs (shims excluded) above its first `#[cfg(test)]`.
# The simplicity issues quote these numbers; CI prints the total.
#
#   scripts/nontest-loc.sh               total
#   scripts/nontest-loc.sh --files       per file, then the total
#   scripts/nontest-loc.sh --since REV   per changed file and in total:
#                                        lines at REV -> now (delta),
#                                        REV's side read via `git show`
set -eu
cd "$(dirname "$0")/.."

nontest() { awk '/^#\[cfg\(test\)\]/{exit} {print}' | wc -l; }
sources() { grep '^crates/[^/]*/src/.*\.rs$' | grep -v '^crates/shims/'; }

if [ "${1:-}" = "--since" ]; then
    rev=${2:?usage: scripts/nontest-loc.sh --since <rev>}
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
        echo "nontest-loc: unknown revision '$rev'" >&2
        exit 2
    }
    before_total=0
    after_total=0
    for f in $( (git ls-tree -r --name-only "$rev" -- crates; find crates/*/src -name '*.rs') |
        sources | sort -u); do
        before=0
        after=0
        if git cat-file -e "$rev:$f" 2>/dev/null; then
            before=$(git show "$rev:$f" | nontest)
        fi
        if [ -f "$f" ]; then
            after=$(nontest <"$f")
        fi
        before_total=$((before_total + before))
        after_total=$((after_total + after))
        if [ "$before" -ne "$after" ]; then
            printf '%6d -> %6d %+6d %s\n' "$before" "$after" $((after - before)) "$f"
        fi
    done
    printf '%6d -> %6d %+6d total\n' "$before_total" "$after_total" \
        $((after_total - before_total))
    exit 0
fi

total=0
for f in $(find crates/*/src -name '*.rs' | sources | sort); do
    n=$(nontest <"$f")
    total=$((total + n))
    if [ "${1:-}" = "--files" ]; then
        printf '%6d %s\n' "$n" "$f"
    fi
done
printf '%6d total\n' "$total"
