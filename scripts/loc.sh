#!/usr/bin/env bash
# loc.sh — non-test Go lines of each package under internal/ and cmd/,
# counted by wc -l with comments and blank lines included, then their total.
# It is the size witness that design changes are measured by: run it at two
# commits and compare. Informational; it never fails on a count.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in internal/*/ cmd/*/; do
    mapfile -t files < <(find "$dir" -name '*.go' ! -name '*_test.go' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    n=$(cat "${files[@]}" | wc -l)
    printf '%6d  %s\n' "$n" "${dir%/}"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
