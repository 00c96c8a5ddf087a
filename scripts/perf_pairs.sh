#!/usr/bin/env bash
# Usage: scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SECONDS=38] [SEED=20201]
#
# Runs alternating pairs of untraced perfbench runs of two builds, the
# parent commit's and a change's, and judges every end-to-end metric
# BENCHMARK.json lists:
#
#   - each side's median and quartiles over its runs, and the pairs the
#     change won by the metric's `better` (ties count for neither side);
#   - gain: the change won at least 9 of every 10 pairs, and the medians
#     differ, in the change's favour, by more than the parent's
#     interquartile range (IQR);
#   - regression: the change's median is worse than the parent's by more
#     than the metric's `bound`, a fraction of the parent's median;
#   - spread: "unresolved" when the parent's IQR alone exceeds that bound
#     (bound × |parent median|): the runs then spread too widely for a
#     regression of the bound's size to be told from noise, whichever
#     way the medians fall; "ok" otherwise.
#
# Odd pairs run the parent first, even pairs the change first. A run that
# exits non-zero (a failed request or output check) stops the script.
#
# The two binaries are perfbench builds of the two commits. Build the
# change's from the working tree and the parent's from a second checkout,
# for example a git worktree:
#
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   cp perfbench/target/release/duet-perfbench /tmp/change-perfbench
#   git worktree add /tmp/duet-parent HEAD~1
#   cargo build --release --offline --manifest-path /tmp/duet-parent/perfbench/Cargo.toml
#   cp /tmp/duet-parent/perfbench/target/release/duet-perfbench /tmp/parent-perfbench
#   git worktree remove /tmp/duet-parent
#   scripts/perf_pairs.sh /tmp/parent-perfbench /tmp/change-perfbench lm
#
# Build both with the same settings (no RUSTFLAGS on one side only).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    awk 'NR == 2' "$0" >&2
    exit 2
fi
parent_bin=$1 change_bin=$2 workload=$3
pairs=${4:-10} seconds=${5:-38} seed=${6:-20201}
script_dir=${0%/*}
[ "$script_dir" = "$0" ] && script_dir=.
benchmark="$script_dir/../BENCHMARK.json"

# One line per end-to-end metric: name, better, bound.
metrics=$(awk '
    /"end_to_end"/ { inside = 1; next }
    inside && /^[[:space:]]*\]/ { inside = 0 }
    inside && /"name"/ {
        match($0, /"name": *"[^"]*"/);   name = substr($0, RSTART, RLENGTH)
        match($0, /"better": *"[^"]*"/); better = substr($0, RSTART, RLENGTH)
        match($0, /"bound": *[0-9.eE+-]+/); bound = substr($0, RSTART, RLENGTH)
        gsub(/"name": *"|"/, "", name); gsub(/"better": *"|"/, "", better)
        sub(/"bound": */, "", bound)
        print name, better, bound
    }' "$benchmark")
if [ -z "$metrics" ]; then
    echo "perf_pairs: no end_to_end metrics in $benchmark" >&2
    exit 1
fi

# Runs one side; appends "side pair metric value" lines to `records`.
records=""
run_side() {
    local side=$1 bin=$2 pair=$3 out last
    if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
        echo "perf_pairs: $side run of pair $pair exited non-zero" >&2
        exit 1
    fi
    last=${out##*$'\n'}
    records+=$(awk -v side="$side" -v pair="$pair" -v line="$last" '
        { name = $1
          if (match(line, "\"" name "\": *\\{\"value\": *[^,}]+")) {
              v = substr(line, RSTART, RLENGTH); sub(/.*"value": */, "", v)
              print side, pair, name, v
          } }' <<<"$metrics")$'\n'
    printf '  pair %2d %-6s %s\n' "$pair" "$side" \
        "$(awk -v p="$pair" -v s="$side" '$1 == s && $2 == p && $3 == "speedup_vs_dense" { print "speedup_vs_dense " $4 }' <<<"$records")"
}

echo "perf_pairs: $workload, $pairs pairs of $seconds s, seed $seed"
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then
        run_side parent "$parent_bin" "$p"
        run_side change "$change_bin" "$p"
    else
        run_side change "$change_bin" "$p"
        run_side parent "$parent_bin" "$p"
    fi
done

# Quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   pos, lo) { pos = 1 + (NR - 1) * p; lo = int(pos)
                                   return lo < NR ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[NR] }
        END { if (NR) printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

printf '\n%-22s %-36s %-36s %-6s %-5s %-10s %s\n' metric "parent q1/median/q3" "change q1/median/q3" won gain regression spread
while read -r name better bound; do
    pq=$(awk -v m="$name" '$1 == "parent" && $3 == m { print $4 }' <<<"$records" | quartiles)
    cq=$(awk -v m="$name" '$1 == "change" && $3 == m { print $4 }' <<<"$records" | quartiles)
    [ -n "$pq" ] && [ -n "$cq" ] || { echo "$name: missing from the runs"; continue; }
    awk -v m="$name" -v better="$better" -v bound="$bound" -v pq="$pq" -v cq="$cq" -v pairs="$pairs" '
        $3 == m { val[$1, $2] = $4 }
        END {
            split(pq, P, " "); split(cq, C, " ")
            sign = better == "lower" ? -1 : 1
            won = 0
            for (p = 1; p <= pairs; p++) {
                d = sign * (val["change", p] - val["parent", p])
                if (d > 0) won++
            }
            gap = sign * (C[2] - P[2])
            gain = (won * 10 >= 9 * pairs && gap > P[3] - P[1]) ? "yes" : "no"
            worse = -gap
            base = P[2] < 0 ? -P[2] : P[2]
            regression = worse > bound * base ? "yes" : "no"
            spread = P[3] - P[1] > bound * base ? "unresolved" : "ok"
            printf "%-22s %-36s %-36s %2d/%-3d %-5s %-10s %s\n", m, P[1] " / " P[2] " / " P[3],
                C[1] " / " C[2] " / " C[3], won, pairs, gain, regression, spread
        }' <<<"$records"
done <<<"$metrics"
