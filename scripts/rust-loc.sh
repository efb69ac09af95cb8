#!/bin/sh
# Counts the workspace's Rust lines, split into non-test and test code.
#
#   scripts/rust-loc.sh          count the checked-out tree
#   scripts/rust-loc.sh REV      count REV and the checked-out tree, and
#                                print the difference (tree minus REV)
#
# The rule: every tracked `.rs` file outside `vendor/` and `perfbench/`;
# blank lines and lines starting with `//` are skipped; files under a
# `tests/` directory and items marked `#[cfg(test)]` count as test code,
# everything else as non-test code.
set -eu

cd "$(git rev-parse --show-toplevel)"

# count DIR: prints "NONTEST TEST" for the tracked files listed on stdin,
# read relative to DIR (the last awk sums in case xargs splits the list)
count() {
    grep '\.rs$' | grep -v -e '^vendor/' -e '^perfbench/' |
        while IFS= read -r f; do
            if [ -f "$1/$f" ]; then printf '%s\n' "$1/$f"; fi
        done |
        tr '\n' '\0' | xargs -0 awk -v root="$1/" '
        FNR == 1 {
            intest = (substr(FILENAME, length(root) + 1) ~ /(^|\/)tests\//)
            pending = 0; depth = 0; opened = 0
        }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (line == "" || line ~ /^\/\//) next
            if (!intest && !pending && line ~ /^#\[cfg\(test\)\]/) {
                pending = 1; depth = 0; opened = 0
            }
            if (intest || pending) test++; else code++
            if (pending && line !~ /^#\[/) {
                opens = gsub(/\{/, "{", line)
                closes = gsub(/\}/, "}", line)
                if (opens > 0) opened = 1
                depth += opens - closes
                if ((opened && depth <= 0) || (!opened && line ~ /;[ \t]*$/))
                    pending = 0
            }
        }
        END { printf "%d %d\n", code, test }' |
        awk '{ code += $1; test += $2 } END { printf "%d %d\n", code, test }'
}

tree=$(git ls-files | count .)

if [ $# -eq 0 ]; then
    set -- $tree
    printf '%-12s %8s %8s\n' "" non-test test
    printf '%-12s %8d %8d\n' tree "$1" "$2"
    exit 0
fi

rev=$(git rev-parse --short "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" | tar -x -C "$tmp"
base=$(git ls-tree -r --name-only "$rev" | count "$tmp")

set -- $base $tree
printf '%-12s %8s %8s\n' "" non-test test
printf '%-12s %8d %8d\n' "$rev" "$1" "$2"
printf '%-12s %8d %8d\n' tree "$3" "$4"
printf '%-12s %+8d %+8d\n' difference "$(($3 - $1))" "$(($4 - $2))"
