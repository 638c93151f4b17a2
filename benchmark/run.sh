#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       build, run all four workloads untraced then traced, print every
#       metric by name with its unit, check outputs, and write
#       benchmark/out/BENCH_e2e.json; non-zero exit on any failed check.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is its result as JSON
#       (the form BENCHMARK.json's `command` is called in).
#   benchmark/run.sh compare --a FILE... --b FILE...
#   benchmark/run.sh make-fixtures
#   benchmark/run.sh print-contract > BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The benchmark is a workspace of its own, so the root manifest's
# [profile.release] does not reach it. Measuring under other settings
# than the program ships with would measure a different program.
profile_release() {
    awk '/^\[/ { on = ($0 == "[profile.release]"); next }
         on && NF && $0 !~ /^[[:space:]]*#/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ ! -f "$here/../Cargo.toml" ]; then
    echo "error: $here is not inside the ODIN repository (no ../Cargo.toml to build against)" >&2
    exit 1
fi
if [ "$(profile_release "$here/../Cargo.toml")" != "$(profile_release "$here/Cargo.toml")" ]; then
    echo "error: [profile.release] of benchmark/Cargo.toml differs from the root Cargo.toml" >&2
    exit 1
fi

# Build output goes to standard error: standard output ends with the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/odin-benchmark"

case "${1:-}" in
    compare | make-fixtures | print-contract)
        command="$1"
        shift
        exec "$bin" "$command" --root "$here" "$@"
        ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --root "$here" "$@"
    fi
done
exec "$bin" suite --root "$here" "$@"
