#!/bin/sh
# The one line-count measure of this repository (run from the root).
# Non-test = every .rs file under crates/*/src and src, up to its first
# column-0 `#[cfg(test)]` item, less the files a `#[cfg(test)] mod name;`
# declaration pulls in: those are test code whole, and the declaration
# itself cuts nothing off its file. Code-only drops blank and comment-only
# lines.
set -eu
files=$(find crates/*/src src -name '*.rs' | sort)
# A `mod name;` declared in lib.rs, main.rs or mod.rs is name.rs beside
# it; one declared in foo.rs is foo/name.rs.
test_files=$(echo "$files" | xargs awk '
    prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ && /^[[:space:]]*(pub )?mod [A-Za-z0-9_]+;/ {
        name = $0; sub(/^[[:space:]]*(pub )?mod /, "", name); sub(/;.*/, "", name)
        dir = FILENAME
        if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir); else sub(/\.rs$/, "", dir)
        print dir "/" name ".rs"
    }
    { prev = $0 }')
echo "$files" | grep -vxF "$test_files" | xargs awk '
    FNR == 1 { in_test = 0; pending = 0 }
    pending && /^(pub )?mod [A-Za-z0-9_]+;/ { pending = 0; next }
    pending { in_test = 1; pending = 0 }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    in_test { next }
    { lines++ }
    !/^[[:space:]]*(\/\/.*)?$/ { code++ }
    END { printf "non-test lines:     %d\ncode-only lines:    %d\n", lines, code }'
printf 'tracked .rs lines:  %d\n' \
    "$(git ls-files '*.rs' | grep -Ev '^(benchmark|third_party)/' | xargs cat | wc -l)"
printf 'HoloConfig fields:  %d\n' \
    "$(awk '/^pub struct HoloConfig/ { on = 1 } on && /^}/ { exit } on && /^    pub / { n++ } END { print n }' \
        crates/core/src/config.rs)"
