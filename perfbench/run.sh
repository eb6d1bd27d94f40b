#!/usr/bin/env bash
# Builds the release ivme-server and the benchmark driver from this
# checkout, then runs the driver with the given arguments, e.g.
#   bash perfbench/run.sh --workload twopath_churn --seed 1 --seconds 10 --trace 0
# Run it from the root of the checkout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ivme-server 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ivme-perfbench" --server-bin "$CARGO_TARGET_DIR/release/ivme-server" "$@"
