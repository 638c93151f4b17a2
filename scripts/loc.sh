#!/usr/bin/env bash
# Non-test Rust lines per crate, so every simplicity PR reports the
# same number.
#
#   scripts/loc.sh [REPO_ROOT] [FILE...]
#
# Counts `crates/<name>/src/**/*.rs` only (a crate's `tests/`,
# `benches/` and the workspace-level `tests/` are test code). Within a
# file, everything from a `#[cfg(test)]` attribute that sits directly
# on a `mod` to the end of the file is test code — the workspace keeps
# its unit tests in one trailing `mod tests`. Two columns: `lines` is
# non-blank non-test lines (the number issues quote); `code` also
# leaves out comment-only lines, so a PR that only edits docs moves the
# first column and not the second. Extra FILE arguments (relative to
# the root) get a row of their own.
set -euo pipefail
ROOT="${1:-$(dirname "$0")/..}"
shift || true
cd "$ROOT"

count() { # FILE... -> "lines code"
    awk '
        FNR == 1 { in_tests = 0; held = 0 }
        in_tests { next }
        held {
            held = 0
            if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { in_tests = 1; next }
            lines++; code++          # the attribute was on a non-module item
        }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        /^[[:space:]]*$/ { next }
        { lines++ }
        !/^[[:space:]]*\/\// { code++ }
        END { printf "%d %d\n", lines, code }
    ' "$@"
}

printf '%-28s %8s %8s\n' crate lines code
total_lines=0
total_code=0
for dir in crates/*/; do
    name=$(basename "$dir")
    mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    read -r lines code < <(count "${files[@]}")
    printf '%-28s %8d %8d\n' "$name" "$lines" "$code"
    total_lines=$((total_lines + lines))
    total_code=$((total_code + code))
done
printf '%-28s %8d %8d\n' total "$total_lines" "$total_code"
for f in "$@"; do
    read -r lines code < <(count "$f")
    printf '%-28s %8d %8d\n' "$f" "$lines" "$code"
done
