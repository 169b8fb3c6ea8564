#!/usr/bin/env bash
# bench_compare.sh — the bench-regression gate. Runs scripts/bench.sh into a
# temporary directory and compares every benchmark that also appears in the
# newest *committed* BENCH_*.json record: if any ns/op regressed more than
# the tolerance, the script fails and lists the offenders.
#
# Hardware drift is normalized away rather than tolerated: every record
# carries BenchmarkCalibration, a fixed CPU-bound AES-CTR loop that measures
# the machine, and each fresh ns/op is rescaled by the fresh-vs-baseline
# calibration ratio before the tolerance is applied, so a slower runner
# generation does not read as a code regression. The suite mixes two kinds
# of series, and each is judged in the one view where a code regression is
# visible on any hardware:
#
#   - wall-clock-paced series (paced BenchmarkServerThroughput/
#     BenchmarkClusterThroughput sub-benchmarks: slot-grid throughput,
#     pinned to timer periods) are compared RAW — rescaling them by CPU
#     speed would manufacture regressions on fast runners and mask real
#     ones on slow runners;
#   - everything else is CPU-bound and is compared NORMALIZED — it tracks
#     the calibration loop across hardware.
#
# The classification is by name: a sub-benchmark of the two throughput
# suites is paced unless its name contains "unpaced" (keep that convention
# when adding series).
#
# Knobs (for intentional perf trade-offs or noisy boxes):
#   BENCH_TOLERANCE_PCT   allowed ns/op regression percentage (default 20)
#   BENCH_COMPARE_SKIP=1  skip the gate entirely (use when a PR knowingly
#                         trades hot-path speed for something else; say so
#                         in the PR description and commit a fresh
#                         BENCH_<date>_<commit>.json so the next gate
#                         baselines against the accepted numbers)
#   BENCH_TIME            forwarded to bench.sh (default 1s)
#   BENCH_FRESH_DIR       keep the freshly-measured record in this directory
#                         instead of a deleted tempdir (CI uploads it as a
#                         workflow artifact so drift across runner
#                         generations stays inspectable after the fact)
#
# Series present only in the fresh run pass automatically (NEW — no
# baseline yet) unless an *older* committed record had them: then the newest
# baseline silently dropped gate coverage, and the script says so with a
# WARN (not a failure) instead of skipping quietly. Removed benchmarks are
# reported as GONE but don't fail.

set -euo pipefail
cd "$(dirname "$0")/.."

tol="${BENCH_TOLERANCE_PCT:-20}"
cal_name="BenchmarkCalibration"

if [[ "${BENCH_COMPARE_SKIP:-0}" == "1" ]]; then
    echo "bench_compare: skipped via BENCH_COMPARE_SKIP=1"
    exit 0
fi

# Newest committed baseline: among tracked BENCH_*.json files, take the one
# whose last touching commit is most recent (filename date alone can't order
# two same-day records). Records stamped "-dirty" are never baselines: they
# measured a tree no commit describes, so gating against them compares
# against numbers that can't be reproduced or attributed.
baseline=""
newest=0
while IFS= read -r f; do
    case "$f" in *-dirty*) echo "bench_compare: ignoring non-commit-attributable $f"; continue ;; esac
    # Tracked but deleted in the working tree (a PR removing an obsolete
    # record): not a usable baseline.
    [[ -f "$f" ]] || continue
    ts="$(git log -1 --format=%ct -- "$f" 2>/dev/null || echo 0)"
    if [[ "$ts" -gt "$newest" ]]; then
        newest="$ts"
        baseline="$f"
    fi
done < <(git ls-files 'BENCH_*.json')

if [[ -z "$baseline" ]]; then
    echo "bench_compare: no committed BENCH_*.json baseline; nothing to gate"
    exit 0
fi
echo "bench_compare: baseline $baseline (tolerance ${tol}%)"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
freshdir="$workdir"
if [[ -n "${BENCH_FRESH_DIR:-}" ]]; then
    freshdir="$BENCH_FRESH_DIR"
    mkdir -p "$freshdir"
fi
# The fresh run deliberately measures the working tree (that is the point of
# the gate), so it is exempt from bench.sh's dirty-tree refusal; its record
# is never committed.
BENCH_ALLOW_DIRTY=1 scripts/bench.sh "$freshdir" >/dev/null
fresh="$(ls -t "$freshdir"/BENCH_*.json | head -1)"
echo "bench_compare: fresh record $fresh"

# Extract "name ns_per_op store" rows from a bench JSON (our own fixed
# format). Records written before the durable tier carry no "store" field —
# every series then was RAM-backed, so absent means "mem". Older records
# also carry a "checkpoint_mode" field, which is skipped.
extract() {
    grep -o '"name": "[^"]*"\(, "store": "[^"]*"\)\{0,1\}\(, "checkpoint_mode": "[^"]*"\)\{0,1\}, "ns_per_op": [0-9.e+]*' "$1" |
        sed -e 's/, "checkpoint_mode": "[^"]*"//' \
            -e 's/"name": "\([^"]*\)", "store": "\([^"]*\)", "ns_per_op": \([0-9.e+]*\)/\1 \3 \2/' \
            -e 's/"name": "\([^"]*\)", "ns_per_op": \([0-9.e+]*\)/\1 \2 mem/'
}

extract "$baseline" | sort > "$workdir/base.txt"
extract "$fresh" | sort > "$workdir/new.txt"

# Series named by older committed records but absent from the newest
# baseline: a fresh benchmark matching one of these means the gate lost
# coverage when the baseline was re-recorded — worth a loud WARN.
: > "$workdir/older.txt"
while IFS= read -r f; do
    [[ "$f" == "$baseline" ]] && continue
    [[ -f "$f" ]] || continue
    case "$f" in *-dirty*) continue ;; esac
    extract "$f" | cut -d' ' -f1 >> "$workdir/older.txt"
done < <(git ls-files 'BENCH_*.json')
sort -u -o "$workdir/older.txt" "$workdir/older.txt"

# Hardware calibration ratio (fresh/baseline); 1 when either side lacks the
# calibration series (pre-calibration baselines), making normalization a
# no-op and the comparison exactly the old raw one.
base_cal="$(awk -v n="$cal_name" '$1 == n {print $2}' "$workdir/base.txt")"
fresh_cal="$(awk -v n="$cal_name" '$1 == n {print $2}' "$workdir/new.txt")"
ratio=1
if [[ -n "$base_cal" && -n "$fresh_cal" ]]; then
    ratio="$(awk -v f="$fresh_cal" -v b="$base_cal" 'BEGIN { printf "%.6f", f / b }')"
    echo "bench_compare: calibration ${base_cal} -> ${fresh_cal} ns/op — hardware ratio ${ratio}, normalizing"
else
    echo "bench_compare: WARNING: no calibration series in baseline and/or fresh run — raw comparison only (commit a baseline recorded with $cal_name)"
fi

awk -v tol="$tol" -v ratio="$ratio" -v cal="$cal_name" '
FILENAME == ARGV[1] { older[$1] = 1; next }
FILENAME == ARGV[2] { base[$1] = $2; bstore[$1] = $3; next }
{
    if ($1 == cal) next # the yardstick measures hardware; never gate it
    # A mem-backed baseline says nothing about a file-backed run (and vice
    # versa): a series whose store kind changed under the same name must be
    # re-baselined, not compared. Refuse rather than misjudge.
    if (($1 in base) && bstore[$1] != $3) {
        printf "  STORE    %-55s baseline store %s, fresh store %s — refusing mem-vs-file comparison; commit a fresh baseline for the renamed series\n", $1, bstore[$1], $3
        bad++
        next
    }
    if (!($1 in base)) {
        if ($1 in older)
            printf "  WARN     %-55s %12.1f ns/op — in an older committed record but not in the newest baseline; gate coverage lost until a fresh baseline is committed\n", $1, $2
        else
            printf "  NEW      %-55s %12.1f ns/op (no baseline)\n", $1, $2
        next
    }
    seen[$1] = 1
    # Wall-clock-paced series (slot-grid throughput) are judged raw: their
    # ns/op is pinned to timer periods, so CPU rescaling would manufacture
    # regressions on fast runners and mask real ones on slow runners.
    # Everything else is CPU-bound and judged calibration-normalized.
    paced = ($1 ~ /^Benchmark(Server|Cluster)Throughput\//) && ($1 !~ /unpaced/)
    eff = paced ? $2 : $2 / ratio
    view = paced ? "raw/paced" : "normalized"
    limit = base[$1] * (1 + tol / 100)
    delta = (base[$1] > 0) ? (eff / base[$1] - 1) * 100 : 0
    if (eff > limit) {
        printf "  REGRESS  %-55s %12.1f -> %12.1f ns/op (%s %+.1f%% > +%s%%)\n", $1, base[$1], $2, view, delta, tol
        bad++
    } else {
        printf "  ok       %-55s %12.1f -> %12.1f ns/op (%s %+.1f%%)\n", $1, base[$1], $2, view, delta
    }
}
END {
    for (n in base) if (!(n in seen) && n != cal) printf "  GONE     %-55s (in baseline, not in this run)\n", n
    if (bad > 0) {
        printf "bench_compare: %d benchmark(s) regressed beyond %s%%.\n", bad, tol
        printf "If intentional, re-run with BENCH_COMPARE_SKIP=1 and commit a fresh record via scripts/bench.sh.\n"
        exit 1
    }
    print "bench_compare: no regression beyond tolerance."
}
' "$workdir/older.txt" "$workdir/base.txt" "$workdir/new.txt"
