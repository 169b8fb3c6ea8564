#!/usr/bin/env bash
# bench.sh — run the repo's perf-trajectory benchmarks and emit a JSON
# record (BENCH_<date>_<commit>.json) so successive PRs can track ns/op,
# B/op and allocs/op for the hot paths over time. The short commit hash in
# the filename keeps two same-day runs from silently overwriting each other;
# the date stays in the JSON records for trend plots.
#
# Usage: scripts/bench.sh [output-dir]    (default: repo root)
# Env:   BENCH_TIME           go test -benchtime value (default 1s)
#        BENCH_ALLOW_DIRTY=1  permit a run from a modified working tree; the
#                             record gets a "-dirty" filename suffix, which
#                             bench_compare.sh refuses to baseline against

set -euo pipefail

cd "$(dirname "$0")/.."
outdir="${1:-.}"
stamp="$(date +%Y%m%d)"
# The hash names the code that was benchmarked. A modified working tree
# cannot produce a commit-attributable record, so by default the run is
# refused outright — a committed dirty record once served as the regression
# gate's baseline, gating later PRs against numbers no commit ever
# contained. BENCH_ALLOW_DIRTY=1 permits an exploratory run; the "-dirty"
# suffix it stamps is excluded from baseline selection by bench_compare.sh.
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    if [ "${BENCH_ALLOW_DIRTY:-0}" != "1" ]; then
        echo "bench.sh: working tree is dirty — the record could not be attributed to a commit." >&2
        echo "bench.sh: commit (or stash) first, or set BENCH_ALLOW_DIRTY=1 for a throwaway -dirty record." >&2
        exit 1
    fi
    commit="${commit}-dirty"
fi
out="${outdir}/BENCH_${stamp}_${commit}.json"
benchtime="${BENCH_TIME:-1s}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# BenchmarkServerThroughput fans out into per-shard-count sub-benchmarks,
# including the recursive-backend series (recursive/shards=N,
# recursive-unpaced, recursive-integrity-unpaced) that records the
# flat-vs-recursive cost and the batched multi-path series
# (batched/shards=N paced — compared raw like every slot-grid series —
# plus batched-unpaced, calibration-normalized like the other unpaced
# capacity runs); BenchmarkClusterThroughput does the same one
# level up (nodes=N over loopback TCP); every sub-benchmark lands in the
# JSON and is gated by bench_compare.sh from its first committed record
# onward. The file-store series (file/shards=N, file-unpaced) measure the
# durable tier; every record row carries a "store" field ("mem" or "file",
# classified from the sub-benchmark name) so bench_compare.sh can refuse a
# mem-vs-file comparison if a series is ever renamed across store kinds.
# BenchmarkCalibration is the hardware yardstick: a fixed AES-CTR
# loop recorded in every BENCH_*.json so bench_compare.sh can normalize
# away runner-generation drift instead of gating code against hardware.
# Naming convention the gate depends on: slot-grid-paced throughput series
# are compared raw, everything else calibration-normalized, classified by
# name — keep "unpaced" in the names of unpaced throughput sub-benchmarks.
# BenchmarkBatchVerb prices the batch_read serving path: one latency-bound
# cdsi client against a paced batched store, single-op vs 4-address-batch
# submission — both sub-series wall-clock paced, so compared raw.
benches='BenchmarkCalibration|BenchmarkPathORAMAccess|BenchmarkEnforcerFetch|BenchmarkSimulatorThroughput|BenchmarkWorkloadGen|BenchmarkServerThroughput|BenchmarkClusterThroughput|BenchmarkBatchVerb'
go test -run '^$' -bench "$benches" -benchmem -benchtime="$benchtime" -count=1 . ./internal/server ./internal/cluster | tee "$raw"

# Convert `go test -bench` lines into a JSON array. A bench line looks like:
#   BenchmarkPathORAMAccess  202093  11572 ns/op  1 B/op  0 allocs/op
# Sub-benchmarks keep their slash-separated name; the trailing -N
# (GOMAXPROCS) suffix is stripped so records compare across machines.
awk -v date="$stamp" -v commit="$commit" '
BEGIN { print "[" ; n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    store = (name ~ /\/file/) ? "file" : "mem"
    ns = ""; bytes = ""; allocs = ""; epoch = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "routing-epoch") epoch = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"date\": \"%s\", \"commit\": \"%s\", \"name\": \"%s\", \"store\": \"%s\", \"ns_per_op\": %s", date, commit, name, store, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (epoch != "")  printf ", \"routing_epoch\": %s", epoch
    printf "}"
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"
