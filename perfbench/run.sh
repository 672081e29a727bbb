#!/usr/bin/env bash
# Build the `serve` daemon and the benchmark from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload multicore --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p m3d-serve --bin serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/m3d-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --tmp-dir "$CARGO_TARGET_DIR/perfbench-tmp" \
    "$@"
