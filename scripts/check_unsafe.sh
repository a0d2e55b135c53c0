#!/usr/bin/env bash
# Guards the `unsafe` budget: the hot loops rest on a row-ownership
# protocol argued in prose (docs/ARCHITECTURE.md §7), so every new
# `unsafe` site widens what that argument has to cover. This counts
# `unsafe { … }` blocks, `unsafe fn`s and `unsafe impl`s per file under
# `src/` and `crates/*/src/` (comment-only lines skipped) and fails when
# a file's count rises above the table below, or a file not in the
# table gains one. A count that *falls* passes; lower the table then.
#
# Usage: scripts/check_unsafe.sh   (exit 1 when any file's count rises)
set -euo pipefail
cd "$(dirname "$0")/.."

# file  allowed
TABLE="
crates/core/src/trisolve/engines.rs 13
crates/core/src/numeric/kernel.rs 11
crates/core/src/numeric/lower.rs 3
crates/sync/src/team.rs 3
crates/core/src/spmv.rs 1
crates/sync/src/affinity.rs 1
"

fail=0
total=0
while IFS= read -r file; do
    n=$(grep -v '^[[:space:]]*//' "$file" | grep -oE 'unsafe (\{|fn|impl)' | wc -l || true)
    [ "$n" -eq 0 ] && continue
    total=$((total + n))
    allowed=$(awk -v f="$file" '$1 == f { print $2 }' <<<"$TABLE")
    if [ "$n" -gt "${allowed:-0}" ]; then
        echo "$file: $n unsafe blocks/fns/impls, table allows ${allowed:-0}" >&2
        fail=1
    fi
done < <(find src crates/*/src -name '*.rs' -type f | sort)

if [ "$fail" -ne 0 ]; then
    cat >&2 <<'EOF'

error: the `unsafe` count of a file rose above scripts/check_unsafe.sh's table.
Prefer a safe formulation; if the site is needed, give it a `// Safety:`
comment, extend the protocol argument in docs/ARCHITECTURE.md §7 and raise
the table entry in the same change.
EOF
    exit 1
fi
echo "ok: $total unsafe blocks/fns/impls, none above the checked-in table" >&2
