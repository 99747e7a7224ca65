#!/bin/sh
# The ROADMAP's protocol for a performance claim: alternating pairs of
# drvbench runs, parent commit against the working tree.
#
#   scripts/bench-pairs.sh <parent-rev> <workload>[,<workload>...] [pairs=3] [metric=ops_per_s]
#
# Builds a `git archive` of <parent-rev> once per resolved commit, in
# ${TMPDIR:-/tmp}/bench-pairs-<commit> (tree and target dir; a later run
# on the same commit reuses both and builds nothing for the parent, and
# the first run on a new commit removes the other bench-pairs-* there), and
# the working tree in .bench_build, then runs `pairs` pairs of
# `drvbench --workload <workload> --seed <k> --seconds 30`, pair k on
# seed k, parent first in odd pairs and change first in even ones; with a
# comma-separated list of workloads, all pairs of each in turn, from the
# same two builds, each workload reported as if run alone. Seed 1
# is the seed development runs on; every other pair is a seed the change
# was not tuned against. Prints, per end-to-end metric of BENCHMARK.json
# (and run.failed_share), both medians, both interquartile ranges and the
# pairs the change won, then each pair's change / parent ratio of
# `metric` (any metric drvbench prints, e.g. peak_heap_mb), and exits 1 if
# a median is worse than the parent's by more than the metric's bound or
# the change failed more operations (on any workload of the list).
# Not run in CI: up to two release builds, then two 30-second runs per pair.
set -eu

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] [pairs=3] [metric=ops_per_s]" >&2
    exit 2
fi
rev=$1
workloads=$2
pairs=${3:-3}
ratio_of=${4:-ops_per_s}
root=$(cd "$(dirname "$0")/.." && pwd)

commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
base=${TMPDIR:-/tmp}/bench-pairs-$commit
parent_bin=$base/target/release/drvbench

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# The parent's tree is extracted beside its final place and renamed into
# it, so a tree that exists is whole; its binary exists once a build of
# it finished.
if [ ! -d "$base/parent" ]; then
    for old in "${TMPDIR:-/tmp}"/bench-pairs-*; do
        if [ "$old" != "$base" ]; then
            rm -rf "$old"
        fi
    done
    mkdir -p "$base"
    rm -rf "$base/parent.new"
    mkdir "$base/parent.new"
    git -C "$root" archive "$commit" | tar -x -C "$base/parent.new"
    mv "$base/parent.new" "$base/parent"
fi
if [ ! -x "$parent_bin" ]; then
    echo "building $rev ($commit) in $base ..." >&2
    cargo build --release --offline --quiet \
        --manifest-path "$base/parent/benchmark/Cargo.toml" --target-dir "$base/target"
fi
echo "building the working tree ..." >&2
cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$root/.bench_build"

# One run: appends "<pair> <side> <metric> <value>" lines to
# $tmp/runs.<workload>.
run() {
    side=$1
    dir=$2
    bin=$3
    (cd "$dir" && "$bin" --workload "$workload" --seed "$pair" --seconds 30 --trace 0) |
        awk -v pair="$pair" -v side="$side" \
            '!/^[#{]/ && NF == 3 { print pair, side, $1, $2 }' >>"$tmp/runs.$workload"
}

# The end-to-end block of BENCHMARK.json as "<name> <better> <bound>".
awk '
    /"end_to_end"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); better = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
    on && /^  \]/ { exit }
' "$root/BENCHMARK.json" >"$tmp/metrics"
echo "run.failed_share lower 0" >>"$tmp/metrics"

failed=0
for workload in $(echo "$workloads" | tr ',' ' '); do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        echo "pair $pair of $pairs (seed $pair) ..." >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$base/parent" "$parent_bin"
            run change "$root" "$root/.bench_build/release/drvbench"
        else
            run change "$root" "$root/.bench_build/release/drvbench"
            run parent "$base/parent" "$parent_bin"
        fi
        pair=$((pair + 1))
    done
    awk -v workload="$workload" -v ratio_of="$ratio_of" '
        # q-th quantile of v[1..n] (sorted in place), linear interpolation.
        function quantile(v, n, q,    i, j, t, pos, lo) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
                    t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
                }
            pos = 1 + (n - 1) * q
            lo = int(pos)
            return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        function summary(side, metric, out,    k, v) {
            for (k = 1; k <= pairs; k++) v[k] = val[k, side, metric]
            out["med"] = quantile(v, pairs, 0.5)
            out["iqr"] = quantile(v, pairs, 0.75) - quantile(v, pairs, 0.25)
        }
        FNR == NR { better[$1] = $2; bound[$1] = $3; order[++metrics] = $1; next }
        { val[$1, $2, $3] = $4; if ($1 > pairs) pairs = $1 }
        END {
            printf "%s, %d pairs\n", workload, pairs
            printf "%-26s %14s %12s %14s %12s %6s  %s\n", "metric", \
                "parent median", "parent IQR", "change median", "change IQR", "won", "verdict"
            for (m = 1; m <= metrics; m++) {
                name = order[m]
                sign = better[name] == "higher" ? 1 : -1
                summary("parent", name, p)
                summary("change", name, c)
                won = 0
                for (k = 1; k <= pairs; k++)
                    if (sign * (val[k, "change", name] - val[k, "parent", name]) > 0) won++
                base = p["med"] < 0 ? -p["med"] : p["med"]
                worse = sign * (p["med"] - c["med"])
                verdict = worse > bound[name] * base ? "WORSE" : "ok"
                if (verdict == "WORSE") failed = 1
                printf "%-26s %14.6f %12.6f %14.6f %12.6f %3d/%-2d  %s\n", name, \
                    p["med"], p["iqr"], c["med"], c["iqr"], won, pairs, verdict
            }
            printf "%s change / parent, pair (seed) 1..%d:", ratio_of, pairs
            for (k = 1; k <= pairs; k++) {
                parent = val[k, "parent", ratio_of]
                ratio = parent > 0 ? sprintf("%.3f", val[k, "change", ratio_of] / parent) : "-"
                printf " %s", ratio
            }
            printf "\n"
            exit failed
        }
    ' "$tmp/metrics" "$tmp/runs.$workload" || failed=1
done
exit "$failed"
