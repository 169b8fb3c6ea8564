#!/usr/bin/env bash
# check_links.sh — markdown link gate. Every intra-repo link in every
# tracked .md file must resolve to an existing file (dead internal links
# fail the build); external http(s) links are listed as warnings only — CI
# must not depend on third-party uptime.
#
# Usage: scripts/check_links.sh

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
external=0
while IFS= read -r md; do
    case "$md" in
    # Reference corpora quoting other repositories verbatim: their relative
    # links point into those repos, not this one.
    SNIPPETS.md|PAPERS.md|PAPER.md|ISSUE.md) continue ;;
    esac
    dir="$(dirname "$md")"
    # Inline markdown links/images: the (target) of ](target). Titles after
    # the URL ("](file.md \"title\")") and #fragments are stripped.
    while IFS= read -r target; do
        target="${target%% *}"
        case "$target" in
        http://*|https://*)
            echo "check_links.sh: WARN external link (not checked): $md -> $target"
            external=$((external + 1))
            ;;
        mailto:*|\#*|'')
            ;;
        *)
            path="${target%%#*}"
            [ -n "$path" ] || continue
            if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
                echo "check_links.sh: DEAD link: $md -> $target" >&2
                fail=1
            fi
            ;;
        esac
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done < <(git ls-files '*.md')

# Go comments that cite a markdown file ("see docs/LEAKAGE.md") must name
# one that exists, from the repo root or from the citing file's directory.
# Only the text after a line's first // is read, with URLs dropped.
cites=0
while IFS= read -r hit; do
    file="${hit%%:*}"
    rest="${hit#*:}"
    line="${rest%%:*}"
    comment="${rest#*:}"
    comment="${comment#*//}"
    while IFS= read -r cited; do
        [ -n "$cited" ] || continue
        cites=$((cites + 1))
        if [ ! -e "$cited" ] && [ ! -e "$(dirname "$file")/$cited" ]; then
            echo "check_links.sh: DEAD citation: $file:$line -> $cited" >&2
            fail=1
        fi
    done < <(sed -E 's#[a-z]+://[^ )]*##g' <<<"$comment" | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md\b' || true)
done < <(git ls-files -z '*.go' | xargs -0 grep -nHE '//.*\.md\b' || true)

if [ "$fail" -ne 0 ]; then
    echo "check_links.sh: FAIL — fix the dead intra-repo links above" >&2
    exit 1
fi
echo "check_links.sh: all intra-repo markdown links and $cites .md citations in Go comments resolve ($external external links not checked)"
