#!/usr/bin/env bash
# Guards the hot numeric/solve kernels against silent memory-ordering
# creep: the whole design premise is that row ownership is handed off
# through the *existing* release/acquire edges (progress counters,
# barriers, team regions), so per-element accesses
# stay plain loads/stores. A new `Ordering::SeqCst`, `Acquire` or
# `AcqRel` inside a hot kernel is either redundant (costs throughput
# for nothing) or papering over a protocol bug — both deserve a
# visible justification.
#
# Any hot-kernel line using those orderings must carry a plain `//`
# comment on the same line or within the two preceding lines saying
# why. Doc comments (`///`) don't count — they describe the API, not
# the ordering choice.
#
# Usage: scripts/check_orderings.sh   (exit 1 on unjustified uses)
set -euo pipefail
cd "$(dirname "$0")/.."

# The hot paths: numeric elimination, triangular solves, the spmv plan.
HOT_PATHS=(
    crates/core/src/numeric
    crates/core/src/trisolve
    crates/core/src/spmv.rs
)

fail=0
for path in "${HOT_PATHS[@]}"; do
    while IFS= read -r file; do
        out=$(awk '
            {
                line[NR] = $0
                # A justifying comment is a plain `//` (not `///`).
                is_comment[NR] = ($0 ~ /(^|[^\/])\/\/($|[^\/])/ && $0 !~ /^[[:space:]]*\/\/\//) ? 1 : 0
            }
            /Ordering::(SeqCst|Acquire|AcqRel)/ {
                justified = is_comment[NR]
                for (i = NR - 2; i < NR; i++)
                    if (i >= 1 && is_comment[i]) justified = 1
                if (!justified)
                    printf "%s:%d: %s\n", FILENAME, NR, $0
            }
        ' "$file")
        if [ -n "$out" ]; then
            printf '%s\n' "$out"
            fail=1
        fi
    done < <(find "$path" -name '*.rs' -type f)
done

if [ "$fail" -ne 0 ]; then
    cat >&2 <<'EOF'

error: unjustified SeqCst/Acquire/AcqRel ordering in a hot kernel.
Row handoff already happens through the progress-counter /
barrier / team-region edges — if this ordering is really needed,
say why in a `//` comment on (or just above) the line.
EOF
    exit 1
fi
echo "ok: all strong orderings in hot kernels carry a justification" >&2
