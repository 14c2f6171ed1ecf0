#!/bin/sh
# A/B comparison of perfbench between a base revision and the working tree.
#
#   make ab BASE=<rev> WORKLOAD=<workload> PAIRS=<n> [SEED=0]
#   sh scripts/ab.sh <rev> <workload> <pairs> [seed]
#
# Run from the repository root. The base side is perfbench built from
# `git archive <rev>` under target/ab/base-<commit>/ (reused when already
# built); the change side is perfbench built from the working tree, copied
# to target/ab/change-perfbench before any run. Building perfbench rewrites
# its stale Cargo.lock, so the working tree's perfbench/Cargo.lock is saved
# first and put back byte for byte. Each pair runs both sides with
# `--trace 0` for BENCHMARK.json's run_seconds, the side that goes first
# alternating from pair to pair.
#
# Runs accumulate: a finished pair's two result lines are appended to
# target/ab/<commit>-<workload>-seed<seed>/{base,change}.jsonl, and the
# summary covers every pair kept there, so a later set cannot hide an
# earlier one. Delete that directory to start a comparison over (after
# editing the code under test, say).
#
# For every end-to-end metric the summary gives each side's median and
# quartiles (linear interpolation between order statistics), the change's
# median against the base's, and the pairs the change won by the metric's
# direction in BENCHMARK.json (ties count for neither side). The verdict,
# first match wins, is
#   gain    the change won at least nine tenths of the pairs and its
#           median beats the base's by more than the base's interquartile
#           range;
#   worse   the change's median is worse than the base's by more than the
#           metric's bound;
#   spread  the base's interquartile range is wider than the bound times
#           its median, too wide to tell;
#   within  otherwise.
set -eu

usage() {
    echo "usage: sh scripts/ab.sh <rev> <workload> <pairs> [seed]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 4 ] || usage
rev=$1
workload=$2
pairs=$3
seed=${4:-0}
[ -n "$rev" ] && [ -n "$workload" ] && [ "$pairs" -gt 0 ] 2>/dev/null || usage
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)

commit=$(git rev-parse --verify "$rev^{commit}")
root=$(pwd)
ab=$root/target/ab
base_dir=$ab/base-$commit
base_bin=$base_dir/perfbench/target/release/perfbench
change_bin=$ab/change-perfbench
mkdir -p "$ab"

if [ ! -x "$base_bin" ]; then
    echo "ab: building perfbench at $commit in $base_dir" >&2
    rm -rf "$base_dir"
    mkdir -p "$base_dir"
    git archive "$commit" | tar -x -C "$base_dir"
    cargo build --release --quiet --offline --manifest-path "$base_dir/perfbench/Cargo.toml"
fi

echo "ab: building perfbench from the working tree" >&2
cp perfbench/Cargo.lock "$ab/Cargo.lock.kept"
trap 'cp "$ab/Cargo.lock.kept" perfbench/Cargo.lock' EXIT
trap 'exit 130' INT TERM
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cp "$ab/Cargo.lock.kept" perfbench/Cargo.lock
trap - EXIT INT TERM
cp perfbench/target/release/perfbench "$change_bin"

out=$ab/$(git rev-parse --short "$commit")-$workload-seed$seed
mkdir -p "$out"
touch "$out/base.jsonl" "$out/change.jsonl"

# run <side> <directory> <binary>: one run, its result line left in
# <side>.next. A failed check or error stops the comparison.
run() {
    if ! (cd "$2" && "$3" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        > "$out/last.out" 2> "$out/last.err"; then
        echo "ab: the $1 run failed:" >&2
        cat "$out/last.err" >&2
        exit 1
    fi
    tail -n 1 "$out/last.out" > "$out/$1.next"
}

i=1
while [ "$i" -le "$pairs" ]; do
    echo "ab: pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run base "$base_dir" "$base_bin"
        run change "$root" "$change_bin"
    else
        run change "$root" "$change_bin"
        run base "$base_dir" "$base_bin"
    fi
    cat "$out/base.next" >> "$out/base.jsonl"
    cat "$out/change.next" >> "$out/change.jsonl"
    i=$((i + 1))
done

kept=$(wc -l < "$out/base.jsonl")
echo "$workload, seed $seed, ${seconds} s runs: base $(git rev-parse --short "$commit") vs the working tree, $kept pairs kept ($pairs run now)"
awk '
# Metric directions and bounds from BENCHMARK.json.
FILENAME == ARGV[1] {
    n = split($0, f, "\"")
    if (n >= 4 && f[2] == "name") name = f[4]
    if (n >= 4 && f[2] == "better") better[name] = f[4]
    if (n >= 3 && f[2] == "bound") { sub(/^[: ]*/, "", f[3]); bound[name] = f[3] + 0 }
    next
}
{
    side = (FILENAME == ARGV[2]) ? "base" : "change"
    row = ++rows[side]
    line = $0
    while (match(line, /"[a-z0-9_.]+":\{"value":[^,]+/)) {
        item = substr(line, RSTART + 1, RLENGTH - 1)
        line = substr(line, RSTART + RLENGTH)
        split(item, kv, "\":\\{\"value\":")
        if (!(kv[1] in seen)) { seen[kv[1]] = 1; order[++metrics] = kv[1] }
        value[side, kv[1], row] = kv[2] + 0
    }
    if ($0 !~ /"correct":true/) wrong[side]++
}
function sorted(side, m, n,    i, j, t) {
    for (i = 1; i <= n; i++) s[i] = value[side, m, i]
    for (i = 2; i <= n; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
}
function quantile(n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return (lo >= n) ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
}
END {
    n = rows["base"] < rows["change"] ? rows["base"] : rows["change"]
    printf "%-18s %-34s %-34s %8s %7s %7s\n", "metric", "base median (q1-q3)", "change median (q1-q3)", "change", "wins", "verdict"
    for (k = 1; k <= metrics; k++) {
        m = order[k]
        sorted("base", m, n)
        bq1 = quantile(n, 0.25); bmed = quantile(n, 0.5); bq3 = quantile(n, 0.75)
        sorted("change", m, n)
        cq1 = quantile(n, 0.25); cmed = quantile(n, 0.5); cq3 = quantile(n, 0.75)
        sign = (better[m] == "higher") ? 1 : -1
        wins = 0
        for (i = 1; i <= n; i++)
            if (sign * (value["change", m, i] - value["base", m, i]) > 0) wins++
        delta = (bmed != 0) ? sprintf("%+.1f%%", 100 * (cmed - bmed) / bmed) : "-"
        if (10 * wins >= 9 * n && sign * (cmed - bmed) > bq3 - bq1) verdict = "gain"
        else if (-sign * (cmed - bmed) > bound[m] * bmed) verdict = "worse"
        else if (bq3 - bq1 > bound[m] * bmed) verdict = "spread"
        else verdict = "within"
        printf "%-18s %-34s %-34s %8s %3d/%-3d %7s\n", m, \
            sprintf("%.6g (%.6g-%.6g)", bmed, bq1, bq3), \
            sprintf("%.6g (%.6g-%.6g)", cmed, cq1, cq3), delta, wins, n, verdict
    }
    if (wrong["base"] + wrong["change"] > 0)
        printf "runs not correct: base %d, change %d\n", wrong["base"], wrong["change"]
}
' BENCHMARK.json "$out/base.jsonl" "$out/change.jsonl"
