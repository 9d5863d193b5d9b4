#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it; every argument is
# passed through (see README.md). Run from the repository root:
#   bash perfbench/run.sh --workload fig2_sweep --seed 24228 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/speakup-perfbench" "$@"
