#!/usr/bin/env bash
# Markdown link check for the docs layer (README.md + docs/), so the
# prose can't rot silently: every relative link target must exist in
# the repository, and so must every `NAME.md` a rustdoc comment points
# at and every `crates/<name>` directory the prose or a rustdoc comment
# names. External (http/https) links are skipped — CI has no network.
# Run from the repository root:
#
#   bash scripts/check_links.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
fail=0
checked=0

for md in "$root"/README.md "$root"/docs/*.md; do
    [ -f "$md" ] || continue
    dir="$(dirname "$md")"
    # Inline markdown links: [text](target). One per line via grep -o.
    while IFS= read -r target; do
        # Skip external links and pure fragments.
        case "$target" in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        # Strip a trailing #fragment.
        path="${target%%#*}"
        [ -n "$path" ] || continue
        checked=$((checked + 1))
        if [ ! -e "$dir/$path" ]; then
            echo "BROKEN: $md -> $target"
            fail=1
        fi
    done < <(grep -o '\](\([^)]*\))' "$md" | sed 's/^](\(.*\))$/\1/')
done

# Rustdoc pointers: a `NAME.md` named in a `//!` / `///` line of `src/`
# or `crates/*/src` must exist at the repository root or under `docs/`.
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    name="${hit##*:}"
    checked=$((checked + 1))
    if [ ! -e "$root/$name" ] && [ ! -e "$root/docs/$name" ]; then
        echo "BROKEN: ${hit%:*} -> $name (rustdoc)"
        fail=1
    fi
done < <(cd "$root" && grep -rnE --include='*.rs' '^[[:space:]]*//[/!]' src crates/*/src |
    grep -oE '^[^:]+:[0-9]+:|[A-Za-z0-9_-]+\.md\b' |
    awk '/^[^:]+:[0-9]+:$/ { loc = $0; next } { print loc $0 }')

# Crate pointers: a `crates/<name>` named in README.md, docs/*.md or a
# rustdoc comment must be a directory of this repository.
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    dir="${hit##*:}"
    checked=$((checked + 1))
    if [ ! -d "$root/$dir" ]; then
        echo "BROKEN: ${hit%:*} -> $dir (no such crate)"
        fail=1
    fi
done < <(cd "$root" && {
    grep -noE 'crates/[a-z0-9_-]+' README.md docs/*.md /dev/null
    grep -rnE --include='*.rs' '^[[:space:]]*//[/!]' src crates/*/src |
        grep -oE '^[^:]+:[0-9]+:|crates/[a-z0-9_-]+' |
        awk '/^[^:]+:[0-9]+:$/ { loc = $0; next } { print loc $0 }'
})

if [ "$fail" -ne 0 ]; then
    echo "markdown link check failed"
    exit 1
fi
echo "markdown link check: $checked relative links, rustdoc file pointers and crate pointers OK"
