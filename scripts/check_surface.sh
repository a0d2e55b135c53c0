#!/usr/bin/env bash
# Guards "the `pub` surface is the user surface": every `pub fn` in a
# library crate's `src/` (outside `#[cfg(test)]` modules and files) must
# be named in at least one `.rs` file outside that `src/` tree. The
# files that count as users:
#
#   * the facade, `src/` (its own `pub fn`s are exempt: it is the top);
#   * every other workspace crate, and a crate's own `src/bin/` and
#     `tests/`;
#   * the root `tests/` and `examples/`;
#   * `benchmark/src`.
#
# A `pub fn` no user names should be `pub(crate)`, so that rustc's
# `dead_code` lint can see whether anything calls it at all.
#
# This is a lower bound: a name counts as used when it appears anywhere
# in a user file, as a word — a method called `len` is "used" by every
# other `len` in the tree. Demoting to `pub(crate)` and letting
# `dead_code` fire is the primary tool; this only stops the surface
# from growing back by the obvious route.
#
# Usage: scripts/check_surface.sh   (exit 1 listing each unnamed `pub fn`)
set -euo pipefail
cd "$(dirname "$0")/.."

# `pub fn` names declared in the given files, outside test modules.
pub_fns() {
    awk '
        FNR == 1 { pending = 0; depth = 0; whole_file = 0 }
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
        match($0, /^[[:space:]]*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/) {
            s = substr($0, RSTART, RLENGTH)
            sub(/.* fn /, "", s)
            printf "%s:%d:%s\n", FILENAME, FNR, s
        }
    ' "$@"
}

fail=0
for src in crates/*/src; do
    lib=$(find "$src" -name '*.rs' -type f -not -path "$src/bin/*" | sort)
    [ -n "$lib" ] || continue
    # Every identifier any user file names.
    words=$(find src tests examples benchmark/src crates -name '*.rs' -type f 2>/dev/null |
        grep -v -F -x -f <(printf '%s\n' $lib) |
        xargs grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    while IFS=: read -r file line name; do
        if ! grep -qxF "$name" <<<"$words"; then
            echo "$file:$line: pub fn $name is named by no user" >&2
            fail=1
        fi
    done < <(pub_fns $lib)
done

if [ "$fail" -ne 0 ]; then
    cat >&2 <<'EOF'

error: a `pub fn` that no user names. Make it `pub(crate)`; if rustc then
reports it dead, delete it, or move it under `#[cfg(test)]` when only a
test uses it.
EOF
    exit 1
fi
echo "ok: every library pub fn is named outside its crate's src/" >&2
