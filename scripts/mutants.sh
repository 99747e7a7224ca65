#!/bin/sh
# The search's mutants: each patch under tests/mutants/ undoes one fix
# the project made. This applies one patch at a time to a scratch copy
# of the checkout and runs the tier-1 search (`tests/search.rs`, seeds
# 1 to 200) against it: `found` with the shrunk world that broke a
# promise, or `missed`.
#
#   scripts/mutants.sh            every mutant
#   scripts/mutants.sh 04 07      the mutants whose names start so
#   scripts/mutants.sh --check    only `git apply --check` each patch
#                                 (seconds: a refactor that moves a
#                                 mutated line fails here instead of
#                                 silently retiring the mutant)
#
# The copy is $TMPDIR/mutants-<pid> (removed at the end); builds share
# $TMPDIR/mutants-target, so a later run rebuilds only what a patch
# touches.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

if [ "${1:-}" = "--check" ]; then
    for p in tests/mutants/*.patch; do
        git apply --check "$p" || {
            echo "mutants: $p no longer applies" >&2
            exit 1
        }
    done
    echo "mutants: every patch applies"
    exit 0
fi

tmp=${TMPDIR:-/tmp}
work="$tmp/mutants-$$"
target="$tmp/mutants-target"
trap 'rm -rf "$work"' EXIT

for p in tests/mutants/*.patch; do
    name=$(basename "$p" .patch)
    if [ $# -gt 0 ]; then
        picked=no
        for want in "$@"; do
            case "$name" in "$want"*) picked=yes ;; esac
        done
        [ "$picked" = yes ] || continue
    fi
    rm -rf "$work"
    mkdir -p "$work"
    git ls-files -co --exclude-standard | while IFS= read -r f; do
        [ -e "$f" ] && printf '%s\0' "$f"
    done | xargs -0 cp --parents -t "$work"
    (cd "$work" && git apply "$root/$p")
    if (cd "$work" && CARGO_TARGET_DIR="$target" RUST_BACKTRACE=0 cargo test -q --test search \
        seeds_1_to_200 >"$work/out.txt" 2>&1); then
        echo "missed $name"
    elif grep -q 'panicked at' "$work/out.txt"; then
        echo "found  $name"
        sed -n '/panicked at/,/^note: /p' "$work/out.txt" | sed '1d;$d'
    else
        echo "broken $name (does not build; its tail follows)"
        tail -n 20 "$work/out.txt"
    fi
done
