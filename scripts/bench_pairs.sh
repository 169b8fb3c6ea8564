#!/usr/bin/env bash
# bench_pairs.sh — paired A/B runs of one benchmark workload. Exports
# BASE_REF with git archive into a temporary directory, then runs N pairs of
#
#   bash benchmark/run.sh --workload WORKLOAD --seed SEED --trace 0
#
# once in that export and once in this checkout's working tree, in ABBA
# order: pair i runs the parent first when i is odd and the change first
# when i is even, so a host that drifts steadily through the set slows each
# side equally. For each end-to-end metric BENCHMARK.json lists it prints
# every pair with its order, the two medians, the change/parent ratio of the
# medians, in how many pairs the change was better (a tie is no win) and
# the exact two-sided sign-test p over the untied pairs, then the medians of
# the parent-first and the change-first pairs alone: a gap between those two
# ratios is drift the alternation cancelled. Failed ops are reported per
# run. Each side builds into its own .bench_build; nothing is downloaded.
#
# Usage: scripts/bench_pairs.sh BASE_REF WORKLOAD N [SEED]   (SEED default 7)

set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 BASE_REF WORKLOAD N [SEED]" >&2
    exit 2
fi
base_ref=$1 workload=$2 pairs=$3 seed=${4:-7}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/parent"

# run DIR SIDE PAIR: one end-to-end run in DIR; its JSON result line goes to
# $tmp/SIDE.PAIR.json.
run() {
    local out="$tmp/$2.$3.json" status=0
    (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0) >"$tmp/log" 2>&1 || status=$?
    grep '^{' "$tmp/log" | tail -n 1 >"$out" || true
    if [ ! -s "$out" ]; then
        echo "pair $3, $2: no result (exit $status)" >&2
        tail -n 20 "$tmp/log" >&2
        exit 1
    fi
    if [ "$status" -ne 0 ]; then
        echo "pair $3, $2: exit $status: $(grep -o '"failed":[0-9]*' "$out") ops failed their check" >&2
    fi
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "$tmp/parent" parent "$i"
        run "$root" change "$i"
    else
        run "$root" change "$i"
        run "$tmp/parent" parent "$i"
    fi
    echo "pair $i/$pairs done" >&2
done

# metricvals SIDE: for every run of SIDE, one line "pair metric value".
metricvals() {
    for i in $(seq 1 "$pairs"); do
        tr '}' '\n' <"$tmp/$1.$i.json" |
            sed -n 's/.*"\([a-z0-9_]*\)":{"value":\([-0-9.eE+]*\).*/\1 \2/p' |
            sed "s/^/$i /"
    done
}
metricvals parent >"$tmp/parent.txt"
metricvals change >"$tmp/change.txt"

echo "== $workload  seed $seed  $pairs pairs  parent $base_ref ($(git -C "$root" rev-parse --short "$base_ref")) vs working tree"
awk -v pairs="$pairs" '
function median(a, n,    i, j, v, s) {
    if (n == 0) return "n/a"
    for (i = 1; i <= n; i++) s[i] = a[i]
    for (i = 2; i <= n; i++) {
        v = s[i]
        for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
        s[j + 1] = v
    }
    return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
# signp(k, n): exact two-sided sign-test p of k wins in n untied pairs,
# 2·P(X ≤ min(k, n−k)) for X ~ Binomial(n, 1/2), capped at 1.
function signp(k, n,    j, c, tail) {
    if (n == 0) return 1
    if (k > n - k) k = n - k
    c = 1; tail = 0
    for (j = 0; j <= k; j++) {
        tail += c
        c = c * (n - j) / (j + 1)
    }
    tail = 2 * tail / 2 ^ n
    return tail > 1 ? 1 : tail
}
# line(label, p, c, n): one row of medians over n pairs and their ratio.
function line(label, p, c, n,    mp, mc) {
    mp = median(p, n); mc = median(c, n)
    if (n == 0) { printf "  %-12s (no pairs)\n", label; return }
    printf "  %-12s %14.4f -> %14.4f  ratio %s\n", label, mp, mc, mp != 0 ? sprintf("%.4f", mc / mp) : "n/a"
}
FILENAME ~ /BENCHMARK.json$/ {
    if ($0 ~ /"end_to_end"/) inE2E = 1
    else if (inE2E && $0 ~ /^  \]/) inE2E = 0
    if (inE2E && match($0, /"name": "[a-z0-9_]*"/)) { name = substr($0, RSTART + 9, RLENGTH - 10); order[++n] = name }
    if (inE2E && match($0, /"better": "[a-z]*"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
    next
}
FILENAME ~ /parent.txt$/ { parent[$2, $1] = $3; next }
FILENAME ~ /change.txt$/ { change[$2, $1] = $3; next }
END {
    for (m = 1; m <= n; m++) {
        name = order[m]
        printf "%s (%s is better)\n", name, better[name]
        wins = ties = np = nc = 0
        delete pp; delete pc; delete cp; delete cc
        for (i = 1; i <= pairs; i++) {
            p[i] = parent[name, i]; c[i] = change[name, i]
            win = (better[name] == "lower") ? c[i] < p[i] : c[i] > p[i]
            wins += win; ties += c[i] == p[i]
            if (i % 2) { pp[++np] = p[i]; pc[np] = c[i] } else { cp[++nc] = p[i]; cc[nc] = c[i] }
            printf "  pair %-3d %s %14.4f -> %14.4f%s\n", i, i % 2 ? "P,C" : "C,P", p[i], c[i], win ? "  win" : ""
        }
        line("median", p, c, pairs)
        printf "  change wins %d/%d%s  sign-test p %.4g\n", wins, pairs, ties ? sprintf(" (%d tied)", ties) : "", signp(wins, pairs - ties)
        line("parent first", pp, pc, np)
        line("change first", cp, cc, nc)
    }
}' "$root/BENCHMARK.json" "$tmp/parent.txt" "$tmp/change.txt"
