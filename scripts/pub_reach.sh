#!/usr/bin/env bash
# Pub-reach gate: every `pub fn` / `pub const fn` in a product crate is
# reached by a run, or it is listed, with a reason, in
# scripts/pub_reach_allow.txt.
#
# An item is unreached when its name, as a whole word, occurs on no
# non-comment line of non-test code other than its own `fn` line. Non-test
# code is everything in `crates/*/src` (the bench bins included, the vendored
# `crates/compat` stubs excluded), `src/`, `examples/` and `benchmark/src`,
# each file cut at its first `#[cfg(test)]`. The match is by name, so it
# errs towards "reached": a name shared with any other item is never listed.
#
# The gate fails on an unreached item the allowlist does not name, and on an
# allowlist line whose item is reached or gone (so the list only shrinks
# with the code).
#
# Usage: scripts/pub_reach.sh        (prints the unreached items it checks)
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/pub_reach_allow.txt

mapfile -t files < <(find crates/*/src src examples benchmark/src -name '*.rs' \
    -not -path 'crates/compat/*' | sort)

# `file fn` of every unreached item, sorted.
unreached="$(awk '
    FNR == 1 { intest = 0 }
    intest { next }
    /^[ \t]*#\[cfg\(test\)\]/ { intest = 1; next }
    /^[ \t]*\/\// { next }
    {
        if (FILENAME ~ /^crates\// && match($0, /^[ \t]*pub (const )?fn [A-Za-z0-9_]+/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.* fn /, "", name)
            defs[FILENAME " " name] = name
        }
        n = split($0, words, /[^A-Za-z0-9_]+/)
        delete seen
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w != "" && !(w in seen)) { seen[w] = 1; lines[w]++ }
        }
    }
    END {
        # Its own `fn` line is one occurrence; reached means one more.
        for (d in defs) if (lines[defs[d]] < 2) print d
    }
' "${files[@]}" | sort)"

listed="$( (grep -v '^[[:space:]]*\(#\|$\)' "$allow" || true) | awk '{ print $1 " " $2 }' | sort)"

echo "$unreached" | sed '/^$/d; s/^/unreached: /'
new="$(comm -23 <(echo "$unreached") <(echo "$listed") | sed '/^$/d')"
stale="$(comm -13 <(echo "$unreached") <(echo "$listed") | sed '/^$/d')"
status=0
if [[ -n "$new" ]]; then
    echo "pub_reach: reached by no run; delete it, make it private, or allowlist it in $allow:" >&2
    echo "$new" | sed 's/^/  /' >&2
    status=1
fi
if [[ -n "$stale" ]]; then
    echo "pub_reach: allowlisted but reached or gone; drop the line from $allow:" >&2
    echo "$stale" | sed 's/^/  /' >&2
    status=1
fi
[[ $status -eq 0 ]] && echo "pub_reach: $(echo "$unreached" | sed '/^$/d' | wc -l) unreached items, all allowlisted"
exit $status
