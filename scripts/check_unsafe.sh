#!/usr/bin/env bash
# Guards the `unsafe` budget: the hot loops rest on a row-ownership
# protocol argued in prose (docs/ARCHITECTURE.md §7), so every new
# `unsafe` site widens what that argument has to cover. This counts
# `unsafe { … }` blocks, `unsafe fn`s and `unsafe impl`s per file under
# `src/` and `crates/*/src/` (comment-only lines skipped) and fails
# unless every file's count equals its row in the table below exactly:
# a file not in the table may have none, a count that rises or falls
# fails, and so does a row naming a file that no longer exists — a
# stale budget would otherwise hide a later rise.
#
# Usage: scripts/check_unsafe.sh   (exit 1 on any mismatch)
set -euo pipefail
cd "$(dirname "$0")/.."

# file  count
TABLE="
crates/core/src/sync/cells.rs 1
crates/core/src/numeric/kernel.rs 11
crates/core/src/sync/team.rs 3
crates/core/src/sync/affinity.rs 1
"

fail=0
total=0
while read -r file _; do
    [ -z "$file" ] && continue
    if [ ! -f "$file" ]; then
        echo "$file: in the table but no longer exists" >&2
        fail=1
    fi
done <<<"$TABLE"
while IFS= read -r file; do
    n=$(grep -v '^[[:space:]]*//' "$file" | grep -oE 'unsafe (\{|fn|impl)' | wc -l || true)
    total=$((total + n))
    allowed=$(awk -v f="$file" '$1 == f { print $2 }' <<<"$TABLE")
    if [ "$n" -ne "${allowed:-0}" ]; then
        echo "$file: $n unsafe blocks/fns/impls, table says ${allowed:-0}" >&2
        fail=1
    fi
done < <(find src crates/*/src -name '*.rs' -type f | sort)

if [ "$fail" -ne 0 ]; then
    cat >&2 <<'MSG'

error: the `unsafe` counts differ from scripts/check_unsafe.sh's table.
A new site: prefer a safe formulation; if it is needed, give it a
`// Safety:` comment, extend the protocol argument in docs/ARCHITECTURE.md
§7 and raise the row in the same change. A removed site or file: lower or
drop its row.
MSG
    exit 1
fi
echo "ok: $total unsafe blocks/fns/impls, every file matching the checked-in table" >&2
