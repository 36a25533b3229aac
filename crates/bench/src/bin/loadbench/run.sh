#!/usr/bin/env bash
# Build loadbench (release, offline) and run one workload:
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes lands under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
export CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export LOADBENCH_RUSTC="$(rustc --version)"
export LOADBENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/loadbench" "$@"
