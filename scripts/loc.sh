#!/usr/bin/env bash
# Prints, per crate, *code* lines and `pub` items: the units ROADMAP's
# size targets and the simplicity PRs' acceptance criteria are stated
# in. A line counts as code when it is not blank, not a comment-only
# line (`//`, `///`, `//!`), and not inside a `#[cfg(test)] mod … { … }`
# block (or a file that is `#![cfg(test)]` as a whole). A code line
# counts as a `pub` item when it opens with `pub fn|struct|enum|trait|
# type|const|mod` (plain `pub` only — `pub(crate)` is not surface).
# Only `src/` trees are counted, so integration tests and examples
# never inflate a crate.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT defaults to this checkout; pass
#        another checkout to compare two commits)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() { # count DIR -> "code-lines pub-items" of every .rs file under DIR
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
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
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        /^[[:space:]]*pub (unsafe )?(fn|struct|enum|trait|type|const|mod) / { p++ }
        END { print n + 0, p + 0 }
    '
}

total=0
total_pub=0
printf '%-22s %8s %8s\n' "crate" "code" "pub"
for src in src crates/*/src; do
    [ -d "$src" ] || continue
    name=$(dirname "$src")
    [ "$name" = "." ] && name="javelin (facade)"
    read -r lines pubs < <(count "$src")
    total=$((total + lines))
    total_pub=$((total_pub + pubs))
    printf '%-22s %8d %8d\n' "${name#crates/}" "$lines" "$pubs"
done
printf '%-22s %8d %8d\n' "total" "$total" "$total_pub"
