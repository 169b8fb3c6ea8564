#!/usr/bin/env bash
# test_bench_pairs.sh — checks scripts/bench_pairs.sh against a stub
# benchmark. It builds a throwaway git repository holding a copy of the
# script, a three-metric BENCHMARK.json and a benchmark/run.sh that logs which
# side ran and prints that side's next fixed result line, commits it as the
# parent, marks the working tree as the change, and then checks the run
# order (parent first in odd pairs, change first in even ones), the pooled
# and per-order medians, the win counts and the sign-test p. Needs only
# bash, git and awk; it runs no Go.
#
# Usage: scripts/test_bench_pairs.sh

set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
repo="$tmp/repo"
mkdir -p "$repo/scripts" "$repo/benchmark"
cp "$here/bench_pairs.sh" "$repo/scripts/"
cat >"$repo/BENCHMARK.json" <<'EOF'
{
  "end_to_end": [
    {
      "name": "throughput_ops_s",
      "better": "higher"
    },
    {
      "name": "cpu_us_per_op",
      "better": "lower"
    },
    {
      "name": "slots_per_op",
      "better": "lower"
    }
  ]
}
EOF
# The stub's k-th run on a side prints that side's k-th values.
stub() {
    cat <<EOF
#!/usr/bin/env bash
echo $1 >>"\$BENCH_PAIRS_LOG"
k=\$(grep -c '^$1\$' "\$BENCH_PAIRS_LOG")
tp=($2)
cpu=($3)
slots=($4)
echo "building"
echo "{\"workload\":\"stub\",\"failed\":0,\"metrics\":{\"throughput_ops_s\":{\"value\":\${tp[k-1]},\"unit\":\"ops/s\"},\"cpu_us_per_op\":{\"value\":\${cpu[k-1]},\"unit\":\"us\"},\"slots_per_op\":{\"value\":\${slots[k-1]},\"unit\":\"count\"}}}"
EOF
}
stub parent "100 90 110 80 100 100 100 100 100 100" "20 20 20 20 20 20 20 20 20 20" "1 1 1 1 1 1 1 1 1 1" >"$repo/benchmark/run.sh"
git -C "$repo" init -q
git -C "$repo" add -A
git -C "$repo" -c user.name=test -c user.email=test@example.invalid commit -q -m parent
stub change "120 100 105 95 101 101 101 101 101 101" "10 11 12 20 19 19 19 19 19 19" "0.99999 1.00001 1 0.99996 1 1 1 1 1 1" >"$repo/benchmark/run.sh"

fail=0
# expect FILE LINE: FILE must hold LINE verbatim.
expect() {
    if ! grep -qxF -- "$2" "$1"; then
        echo "FAIL: missing line: $2" >&2
        fail=1
    fi
}

export BENCH_PAIRS_LOG="$tmp/order4"
bash "$repo/scripts/bench_pairs.sh" HEAD stub 4 >"$tmp/out4" 2>"$tmp/err4"
if [ "$(tr '\n' ' ' <"$BENCH_PAIRS_LOG")" != "parent change change parent parent change change parent " ]; then
    echo "FAIL: 4 pairs ran in order: $(tr '\n' ' ' <"$BENCH_PAIRS_LOG")" >&2
    fail=1
fi
o="$tmp/out4"
expect "$o" "  pair 1   P,C       100.0000 ->       120.0000  win"
expect "$o" "  pair 2   C,P        90.0000 ->       100.0000  win"
expect "$o" "  pair 3   P,C       110.0000 ->       105.0000"
expect "$o" "  median              95.0000 ->       102.5000  ratio 1.0789"
expect "$o" "  change wins 3/4  sign-test p 0.625"
expect "$o" "  parent first       105.0000 ->       112.5000  ratio 1.0714"
expect "$o" "  change first        85.0000 ->        97.5000  ratio 1.1471"
# cpu_us_per_op: three lower, one tie; the tie leaves the sign test.
expect "$o" "  median              20.0000 ->        11.5000  ratio 0.5750"
expect "$o" "  change wins 3/4 (1 tied)  sign-test p 0.25"
expect "$o" "  parent first        20.0000 ->        11.0000  ratio 0.5500"
expect "$o" "  change first        20.0000 ->        15.5000  ratio 0.7750"
# slots_per_op: the change differs from the parent only past the fourth
# decimal, which the rows do not print, so every pair is a tie.
expect "$o" "  pair 1   P,C         1.0000 ->         1.0000"
expect "$o" "  pair 4   C,P         1.0000 ->         1.0000"
expect "$o" "  change wins 0/4 (4 tied)  sign-test p 1"

export BENCH_PAIRS_LOG="$tmp/order10"
bash "$repo/scripts/bench_pairs.sh" HEAD stub 10 >"$tmp/out10" 2>"$tmp/err10"
if [ "$(grep -c . "$BENCH_PAIRS_LOG")" != 20 ] || [ "$(sed -n '19p' "$BENCH_PAIRS_LOG")" != change ]; then
    echo "FAIL: 10 pairs ran in order: $(tr '\n' ' ' <"$BENCH_PAIRS_LOG")" >&2
    fail=1
fi
# 9 of 10 throughput wins: p = 2·(1 + 10)/1024; 9 of 9 untied cpu wins:
# p = 2/512.
expect "$tmp/out10" "  change wins 9/10  sign-test p 0.02148"
expect "$tmp/out10" "  change wins 9/10 (1 tied)  sign-test p 0.003906"

if [ "$fail" -ne 0 ]; then
    echo "--- 4 pairs:" >&2
    cat "$tmp/out4" "$tmp/err4" >&2
    exit 1
fi
echo "bench_pairs.sh: order, medians and sign-test p as expected"
