#!/usr/bin/env bash
# Build the release `pmaxt` binary and the perfbench driver from this
# checkout, then run one benchmark leg from the repository root:
#
#   bash perfbench/run.sh --workload maxt-paper --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; the last line of standard output is
# the result JSON. Both builds honour CARGO_TARGET_DIR.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from a checkout of the repository; no sources here" >&2
    exit 1
fi
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet -p sprint-repro --bin pmaxt >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$bench_target/release/perfbench" --pmaxt "$root_target/release/pmaxt" "$@"
