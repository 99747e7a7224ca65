#!/bin/sh
# Lists every `pub fn` under crates/*/src (shims excluded) that no other
# file calls: those with no caller at all (their own file names them only
# in its `#[cfg(test)]` module, or not at all), then those called only
# from their own file (they can be private). Exits 1 when either list is
# non-empty, 0 when both are.
#
# A name counts as called when another tracked `.rs` file names it on a
# line that is not a `//` comment, or when its own file names it in a
# `$crate::` path (a macro the file exports expands to it in other
# crates). A name an unrelated item shares reads as called, so the check
# can miss an orphan but never flags a live function.
#
#   scripts/orphans.sh
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Code lines only; `grep -a` because a tracked file may read as binary.
code() { grep -av '^[[:space:]]*//' "$1" || true; }
nontest() { code "$1" | awk '/^#\[cfg\(test\)\]/{exit} {print}'; }
idents() { grep -aoE '[A-Za-z_][A-Za-z0-9_]*' || true; }

# "<name> <file>" for every identifier a tracked file names in code.
git ls-files '*.rs' >"$tmp/files"
while read -r f; do
    code "$f" | idents | sort -u | sed "s|\$| $f|"
done <"$tmp/files" >"$tmp/names"

# "<name> <file> <line>" for every `pub fn` above a file's test module.
for f in $(grep '^crates/[^/]*/src/.*\.rs$' "$tmp/files" | grep -v '^crates/shims/'); do
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" |
        grep -anE '^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' |
        sed -E "s|^([0-9]+):[[:space:]]*pub (const )?fn ([A-Za-z_][A-Za-z0-9_]*).*|\\3 $f \\1|"
done >"$tmp/defs"

# Definitions no other file names.
awk 'NR == FNR { seen[$1] = seen[$1] " " $2 " "; next }
     { if (index(seen[$1], " ") == 0 || seen[$1] == " " $2 " ") print }' \
    "$tmp/names" "$tmp/defs" >"$tmp/lonely"

: >"$tmp/orphan"
: >"$tmp/local"
while read -r name f line; do
    if grep -aqE "\\\$crate::([A-Za-z_][A-Za-z0-9_]*::)*$name\\b" "$f"; then
        continue
    fi
    uses=$(nontest "$f" | grep -aoE "\\b$name\\b" | wc -l)
    if [ "$uses" -gt 1 ]; then
        echo "$f:$line $name" >>"$tmp/local"
    else
        echo "$f:$line $name" >>"$tmp/orphan"
    fi
done <"$tmp/lonely"

status=0
if [ -s "$tmp/orphan" ]; then
    echo "pub fns with no caller outside their own test module:"
    sed 's/^/  /' "$tmp/orphan"
    status=1
fi
if [ -s "$tmp/local" ]; then
    echo "pub fns called only from their own file (make them private):"
    sed 's/^/  /' "$tmp/local"
    status=1
fi
[ "$status" -eq 0 ] && echo "orphans: every pub fn has a caller in another file"
exit "$status"
