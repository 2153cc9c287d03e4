#!/usr/bin/env bash
# Non-test code lines per file, at two revisions, for crates/ and vendor/.
#
#   scripts/sloc.sh <base> [<head>]
#
# <base> and <head> are any git revisions; without <head> the working
# tree is counted (tracked and untracked, not ignored, files). Prints one
# line per file whose count differs (`-` where the file does not exist),
# then the totals over every counted file and their delta.
#
# A counted line is a non-blank line of a `.rs` file whose first
# non-space characters are not `//` (so doc comments do not count either),
# outside any `tests/`, `examples/` or `benches/` directory, and outside
# every item marked `#[cfg(test)]`. The attribute skips exactly the item
# it marks: a whole `mod tests { .. }`, or a single `use ..;` line.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <base> [<head>]" >&2
    exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$1
head=${2:-}

# Reads one Rust file on stdin and prints its count.
count() {
    awk '
    # The line with string and char literals and any line comment removed,
    # so that only real braces and semicolons are left to count.
    function code(s) {
        gsub(/\\\\/, "", s)
        gsub(/\\"/, "", s)
        gsub(/"[^"]*"/, "\"\"", s)
        gsub(/\047(\\.|[^\\\047])\047/, "", s)
        sub(/\/\/.*/, "", s)
        return s
    }
    # Follows the skipped item through one line; clears `skip` at its end.
    function follow(s,    opens, closes) {
        s = code(s)
        if (!opened && s ~ /^[ \t]*(#\[.*)?$/) return
        opens = gsub(/\{/, "{", s)
        closes = gsub(/\}/, "}", s)
        if (opens > 0) opened = 1
        depth += opens - closes
        if ((opened && depth <= 0) || (!opened && s ~ /;/)) skip = 0
    }
    {
        t = $0
        sub(/^[ \t]+/, "", t)
        if (skip) { follow($0); next }
        if (index(t, "#[cfg(test)]") == 1) {
            skip = 1; depth = 0; opened = 0
            follow(substr(t, length("#[cfg(test)]") + 1))
            next
        }
        if (t != "" && substr(t, 1, 2) != "//") n++
    }
    END { print n + 0 }'
}

# Lists the counted paths at a revision (the working tree if empty).
paths() {
    if [ -n "$1" ]; then
        git ls-tree -r --name-only "$1" -- crates vendor
    else
        git ls-files --cached --others --exclude-standard -- crates vendor
    fi | grep '\.rs$' | grep -Ev '(^|/)(tests|examples|benches)/' || true
}

# Prints `path count` for every counted file at a revision.
counts() {
    local path
    paths "$1" | while read -r path; do
        if [ -n "$1" ]; then
            printf '%s %s\n' "$path" "$(git show "$1:$path" | count)"
        elif [ -f "$path" ]; then
            printf '%s %s\n' "$path" "$(count < "$path")"
        fi
    done
}

before=$(mktemp)
after=$(mktemp)
trap 'rm -f "$before" "$after"' EXIT
counts "$base" > "$before"
counts "$head" > "$after"

awk -v base="$base" -v head="${head:-worktree}" '
    FNR == NR { a[$1] = $2; seen[$1] = 1; next }
    { b[$1] = $2; seen[$1] = 1 }
    END {
        printf "%-56s %8s %8s %7s\n", "file", substr(base, 1, 8), substr(head, 1, 8), "delta"
        n = 0
        for (f in seen) files[++n] = f
        # Insertion sort: the listing is short and awk has no portable sort.
        for (i = 2; i <= n; i++) {
            f = files[i]
            for (j = i - 1; j >= 1 && files[j] > f; j--) files[j + 1] = files[j]
            files[j + 1] = f
        }
        for (i = 1; i <= n; i++) {
            f = files[i]
            x = (f in a) ? a[f] : 0
            y = (f in b) ? b[f] : 0
            ta += x; tb += y
            if (x == y) continue
            printf "%-56s %8s %8s %+7d\n", f, (f in a) ? x : "-", (f in b) ? y : "-", y - x
        }
        printf "%-56s %8d %8d %+7d\n", "total", ta, tb, tb - ta
    }' "$before" "$after"
