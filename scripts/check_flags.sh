#!/usr/bin/env bash
# check_flags.sh — CLI flag-drift gate. Builds every binary, extracts its
# registered flags from -help, and diffs them against the binary's section
# in docs/CLI.md — in both directions: a flag added or renamed in code
# without a doc row fails, and a doc row for a flag that no longer exists
# fails too. This is what keeps the flag reference authoritative instead of
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

    # The flag package prints the registry on -help and exits 2.
    help_flags="$("$bindir/$bin" -help 2>&1 | awk '$1 ~ /^-/ {print substr($1, 2)}' | sort -u)"

    # Rows of this binary's section in docs/CLI.md: between "## <bin> " and
    # the next "## ", every table row whose first cell is a backticked flag.
    doc_flags="$(awk -v bin="$bin" '
        /^## / { in_sec = ($2 == bin) }
        in_sec && /^\| `-/ { f = $2; gsub(/[`|]/, "", f); sub(/^-/, "", f); print f }
    ' "$doc" | sort -u)"

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
done

if [ "$fail" -ne 0 ]; then
    echo "check_flags.sh: FAIL — update docs/CLI.md to match the binaries" >&2
    exit 1
fi
echo "check_flags.sh: all binaries' flags match docs/CLI.md"
