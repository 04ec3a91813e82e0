#!/usr/bin/env bash
# The single entry to the repo benchmark: builds the benchmark package
# offline, then either runs one workload once (the form BENCHMARK.json's
# command takes: --workload W --seed N --seconds S --trace 0|1, ending in
# one JSON line) or hands over to suite.py for the whole set, --repeat and
# --selftest. Run from the repository root.
set -euo pipefail

here="$(dirname "$0")"
# The benchmark builds into its own directory unless the caller names one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/netagg-benchmark"

single=0
for arg in "$@"; do
    [ "$arg" = "--trace" ] && single=1
done
if [ "$single" = 1 ]; then
    exec "$bin" "$@"
fi
exec python3 "$here/suite.py" --binary "$bin" "$@"
