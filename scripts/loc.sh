#!/bin/sh
# The one line-count measure of this repository (run from the root).
# Non-test = every .rs file under crates/*/src and src, up to its first
# column-0 `#[cfg(test)]`; code-only drops blank and comment-only lines.
set -eu
find crates/*/src src -name '*.rs' | sort | xargs awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    { lines++ }
    !/^[[:space:]]*(\/\/.*)?$/ { code++ }
    END { printf "non-test lines:     %d\ncode-only lines:    %d\n", lines, code }'
printf 'tracked .rs lines:  %d\n' \
    "$(git ls-files '*.rs' | grep -Ev '^(benchmark|third_party)/' | xargs cat | wc -l)"
printf 'HoloConfig fields:  %d\n' \
    "$(awk '/^pub struct HoloConfig/ { on = 1 } on && /^}/ { exit } on && /^    pub / { n++ } END { print n }' \
        crates/core/src/config.rs)"
