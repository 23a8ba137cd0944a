#!/usr/bin/env bash
# Grep-level count of public items per crate: lines declaring
# `pub fn|struct|enum|trait|const|type` (optionally `pub const fn`,
# `pub unsafe fn`, `pub async fn`) under each crate's `src/`, skipping
# `#[cfg(test)]` modules. `pub(crate)` and `pub use` are not counted.
#
#   scripts/api_count.sh            # from the repository root
#
# It counts declarations, not reachability: an item in a private module
# still counts. Compare the output before and after a change.
set -euo pipefail
cd "$(dirname "$0")/.."

count_src() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0; pending = 0 }
        # Inside a #[cfg(test)] module: track braces until it closes.
        skip {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending && /^[[:space:]]*#\[/ { next }
        pending && /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]/ {
            pending = 0
            depth = gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth > 0) skip = 1
            next
        }
        { pending = 0 }
        /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|trait|const|type)[[:space:]]/ { n++ }
        END { print n + 0 }
    ' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
printf '%-16s %6s\n' crate items
for dir in crates/*/; do
    name=$(sed -n 's/^name[[:space:]]*=[[:space:]]*"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    n=$(count_src "$dir/src")
    total=$((total + n))
    printf '%-16s %6d\n' "$name" "$n"
done
n=$(count_src src)
total=$((total + n))
printf '%-16s %6d\n' vif "$n"
printf '%-16s %6d\n' total "$total"
