#!/usr/bin/env bash
# Guards "one region executor": every parallel region of the library
# runs on a persistent `WorkerTeam`, so product code
# starts OS threads in exactly two places — the team's constructor and
# the solve service's own dispatcher / connection threads. A
# `std::thread::spawn`, `scope` or `Builder` anywhere else is a second
# executor creeping back in (and breaks the zero-spawn contract of the
# planned numeric and solve paths).
#
# Checked: code lines of `src/` and `crates/*/src/` — not comments, not
# `#[cfg(test)] mod … { … }` blocks (tests may spawn to force
# interleavings), not files that are `#![cfg(test)]` as a whole.
#
# Usage: scripts/check_spawns.sh   (exit 1 on a spawn outside the list)
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED=(
    crates/core/src/sync/team.rs
    crates/service/src/service.rs
    crates/service/src/tcp.rs
)

fail=0
while IFS= read -r file; do
    for ok in "${ALLOWED[@]}"; do
        [ "$file" = "$ok" ] && continue 2
    done
    out=$(awk '
        whole_file { next }
        /^[[:space:]]*#!\[cfg\(test\)\]/ { whole_file = 1; next }
        depth > 0 {
            # Inside a test module: track its braces until it closes.
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ {
            pending = 0
            depth = gsub(/\{/, "{") - gsub(/\}/, "}")
            next
        }
        { pending = 0 }
        /^[[:space:]]*\/\// { next }
        /thread::(spawn|scope|Builder)/ ||
        /use std::thread::\{[^}]*(spawn|scope|Builder)/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    ' "$file")
    if [ -n "$out" ]; then
        printf '%s\n' "$out"
        fail=1
    fi
done < <(find src crates/*/src -name '*.rs' -type f | sort)

if [ "$fail" -ne 0 ]; then
    cat >&2 <<'EOF'

error: thread spawn outside the persistent team and the service front-end.
Run the work as a region on a `WorkerTeam` (crates/core/src/sync/team.rs) instead;
tests that need raw threads belong in a `#[cfg(test)]` module.
EOF
    exit 1
fi
echo "ok: no thread spawns outside the worker team and the service front-end" >&2
