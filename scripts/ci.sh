#!/usr/bin/env bash
# Offline tier-1 gate: build + test + bench smoke, with zero network
# access and warnings treated as errors.
#
# The workspace has no external dependencies — everything resolves from
# path crates — so this must pass on a machine with an empty cargo
# registry. `--offline` makes any accidental registry dependency a hard
# failure instead of a hang.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-Dwarnings"
export CARGO_NET_OFFLINE="true"

echo "== xlint (call-graph workspace analysis, <5s budget) =="
# Build first so compile time doesn't count against the lint budget;
# the JSON report lands in target/ for tooling. A non-zero exit (any
# diagnostic) fails the gate via `set -e`.
cargo build -q -p xlint --offline
xlint_start=$(date +%s%N)
./target/debug/xlint --emit=json > target/xlint_report.json
xlint_ms=$(( ($(date +%s%N) - xlint_start) / 1000000 ))
echo "xlint: clean in ${xlint_ms}ms (report: target/xlint_report.json)"
if [ "$xlint_ms" -ge 5000 ]; then
    echo "xlint: exceeded the 5s wall-time budget (${xlint_ms}ms)" >&2
    exit 1
fi

echo "== size (tracked .rs lines per crate; the non-loadbench total is what a PR's net delta is stated against) =="
size() { git ls-files "$1" | grep -v loadbench | xargs cat | wc -l; }
for c in crates/*/; do
    printf '%8d  %s\n' "$(size "$c*.rs")" "$(basename "$c")"
done
printf '%8d  total outside loadbench (crates + root src/, tests/, examples/)\n' "$(size '*.rs')"

echo "== one serving engine (grep gate over crates/serving/src, test modules excluded) =="
# The second route table and the pool came from adding a path beside
# the first; this fails the build if either starts to come back. So does
# the acceptor's poll: a non-blocking listener put a 5 ms sleep under
# every request (the listener blocks; `stop()` wakes it by connecting).
routers=0
for f in crates/serving/src/*.rs; do
    # Non-test source: everything above the file's `#[cfg(test)]`.
    src=$(sed '/^#\[cfg(test)\]/,$d' "$f")
    routers=$(( routers + $(grep -c 'Router::new()' <<<"$src" || true) ))
    if grep -nE 'WorkerPool|submit_traced|generate_traced|admit_traced' <<<"$src"; then
        echo "serving: $f names a deleted serving path (see above)" >&2
        exit 1
    fi
    if grep -nE 'set_nonblocking|WouldBlock' <<<"$src"; then
        echo "serving: $f polls a socket (see above); the acceptor blocks in accept()" >&2
        exit 1
    fi
done
if [ "$routers" -gt 1 ]; then
    echo "serving: $routers \`Router::new()\` route tables outside tests; there is one, in api.rs" >&2
    exit 1
fi

echo "== one KV store (grep gate over crates/models/src) =="
# Every decode path writes K/V through `kv_block::BlockPool`; this fails
# the build if a second store, or a trait to read two of them, comes back.
if grep -rnE 'KvCache|StreamKv|KvSeam|KvRows' crates/models/src; then
    echo "models: a deleted KV store or seam is named above; BlockPool is the only store" >&2
    exit 1
fi

echo "== build (release, warnings are errors) =="
cargo build --workspace --release --offline

echo "== test (all targets) =="
cargo test --workspace -q --offline

echo "== loadbench (the BENCHMARK.json package: builds against the public API, unit tests) =="
# Not a workspace member, so the step above cannot see an API break
# against it. Builds where `run.sh` does; that and the lock file cargo
# writes beside the manifest are git-ignored.
CARGO_TARGET_DIR=.bench_build \
    cargo test --release -q --offline --manifest-path crates/bench/src/bin/loadbench/Cargo.toml

echo "== bench smoke (fast mode, kernel + generation harnesses) =="
# BENCH_*.json land under target/ (absolute: cargo runs a bench from its
# package directory), so a CI run leaves the five tracked root BENCH_*.json
# alone; RAT_BENCH_DIR="$PWD" refreshes them when that is the point.
export RAT_BENCH_DIR="${RAT_BENCH_DIR:-$PWD/target/bench}"
RAT_BENCH_FAST=1 \
    cargo bench -p ratatouille-bench --bench tensor_kernels --offline
RAT_BENCH_FAST=1 \
    cargo bench -p ratatouille-bench --bench generation_latency --offline
RAT_BENCH_FAST=1 \
    cargo bench -p ratatouille-bench --bench quantized_decode --offline
RAT_BENCH_FAST=1 \
    cargo bench -p ratatouille-bench --bench batched_decode --offline
# Also the paged-attention determinism gate: the harness asserts every
# thread count reproduces the one-thread streams before timing anything.
RAT_BENCH_FAST=1 \
    cargo bench -p ratatouille-bench --bench paged_attention --offline

echo "== /metrics smoke (serve, scrape, assert required metric names) =="
cargo run --release -q -p ratatouille-bench --bin metrics_smoke --offline

echo "== quantized-generation smoke (int8 decode: finite, deterministic, thread-invariant) =="
cargo run --release -q -p ratatouille-bench --bin quantized_smoke --offline

echo "== batched-decode smoke (batch determinism, KV-prefix hits, >=2x shared-batch throughput, long-context sweep determinism) =="
cargo run --release -q -p ratatouille-bench --bin batched_smoke --offline

echo "== request-tracing smoke (X-Trace-Id, /debug/requests lifecycle, chrome export, <=2% decode overhead) =="
cargo run --release -q -p ratatouille-bench --bin trace_smoke --offline

echo "== ci.sh: all gates passed =="
