#!/usr/bin/env bash
# check_flags.sh — CLI flag-drift gate. Builds every binary, extracts its
# registered flags and their defaults from -help, and diffs them against the
# binary's section in docs/CLI.md:
#
#   - names, in both directions: a flag added or renamed in code without a
#     doc row fails, and a doc row for a flag that no longer exists fails too;
#   - defaults: each row's default cell must match the flag's "(default X)".
#     The flag package prints no default for a zero value, so 0, 0s, false
#     and an empty cell all read as zero; quotes and backticks are stripped.
#
# This is what keeps the flag reference authoritative instead of
# aspirational (the drift that motivated it was exactly a flag shipped
# without a doc row).
#
# Usage: scripts/check_flags.sh

set -euo pipefail
cd "$(dirname "$0")/.."

doc="docs/CLI.md"
[ -f "$doc" ] || { echo "check_flags.sh: $doc missing" >&2; exit 1; }

bindir="$(mktemp -d)"
trap 'rm -rf "$bindir"' EXIT

fail=0
for bin in oramd oramproxy loadgen oramsim experiments leakcalc attack; do
    go build -o "$bindir/$bin" "./cmd/$bin"

    # The flag package prints the registry on -help and exits 2: a line per
    # flag ("  -name type"), then its usage, which ends in "(default X)"
    # unless X is the zero value. One "name<TAB>default" line per flag.
    help_defaults="$("$bindir/$bin" -help 2>&1 | awk '
        function emit() { if (f != "") print f "\t" d }
        $1 ~ /^-/ { emit(); f = substr($1, 2); d = ""; next }
        match($0, /\(default .*\)$/) { d = substr($0, RSTART + 9, RLENGTH - 10) }
        END { emit() }
    ' | sort -u)"
    help_flags="$(cut -f1 <<<"$help_defaults")"

    # Rows of this binary's section in docs/CLI.md: between "## <bin> " and
    # the next "## ", every table row whose first cell is a backticked flag;
    # the second cell is its default.
    doc_defaults="$(awk -F'|' -v bin="$bin" '
        /^## / { split($0, h, " "); in_sec = (h[2] == bin) }
        in_sec && /^\| `-/ {
            f = $2; gsub(/[` ]/, "", f); sub(/^-/, "", f)
            d = $3; gsub(/^ +| +$/, "", d)
            print f "\t" d
        }
    ' "$doc" | sort -u)"
    doc_flags="$(cut -f1 <<<"$doc_defaults")"

    undocumented="$(comm -23 <(echo "$help_flags") <(echo "$doc_flags"))"
    stale="$(comm -13 <(echo "$help_flags") <(echo "$doc_flags"))"
    if [ -n "$undocumented" ]; then
        echo "check_flags.sh: $bin flags missing from $doc:" >&2
        echo "$undocumented" | sed 's/^/    -/' >&2
        fail=1
    fi
    if [ -n "$stale" ]; then
        echo "check_flags.sh: $doc documents $bin flags that no longer exist:" >&2
        echo "$stale" | sed 's/^/    -/' >&2
        fail=1
    fi

    # Defaults of the flags both sides know, normalized: quotes and
    # backticks stripped, every spelling of a zero value made empty.
    normalize='{ gsub(/["`]/, "", $2); if ($2 ~ /^(0|0s|false)$/) $2 = ""; print $1 "\t" $2 }'
    drift="$(join -t $'\t' -o 1.1,1.2,2.2 \
        <(awk -F'\t' "$normalize" <<<"$help_defaults" | sort -t $'\t' -k1,1) \
        <(awk -F'\t' "$normalize" <<<"$doc_defaults" | sort -t $'\t' -k1,1) |
        awk -F'\t' '$2 != $3 { printf "    -%s: -help says \"%s\", %s says \"%s\"\n", $1, $2, doc, $3 }' doc="$doc")"
    if [ -n "$drift" ]; then
        echo "check_flags.sh: $bin defaults differ from $doc:" >&2
        echo "$drift" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "check_flags.sh: FAIL — update docs/CLI.md to match the binaries" >&2
    exit 1
fi
echo "check_flags.sh: all binaries' flags and defaults match docs/CLI.md"
