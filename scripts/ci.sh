#!/usr/bin/env bash
# Offline tier-1 gate: lint + grep gates + build + test, with zero
# network access and warnings treated as errors. `cargo test` is the only
# gate runner and `loadbench` the only benchmark; this script adds the
# structural gates a test cannot express and builds loadbench.
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
# Build first so compile time doesn't count against the lint budget. A
# non-zero exit (any diagnostic) fails the gate via `set -e`.
cargo build -q -p xlint --offline
xlint_start=$(date +%s%N)
./target/debug/xlint
xlint_ms=$(( ($(date +%s%N) - xlint_start) / 1000000 ))
echo "xlint: clean in ${xlint_ms}ms"
if [ "$xlint_ms" -ge 5000 ]; then
    echo "xlint: exceeded the 5s wall-time budget (${xlint_ms}ms)" >&2
    exit 1
fi
# Method calls resolve on their receivers' types; the name tables that
# stood in for types must not come back.
if grep -rnE 'METHOD_BLOCKLIST|MACRO_FN_BRIDGE' crates/xlint/src; then
    echo "xlint: a method/macro name table is back (see above); resolve on the receiver's type" >&2
    exit 1
fi

echo "== size (tracked .rs lines per crate; the non-loadbench total is what a PR's net delta is stated against) =="
# Beside each count, the net change against `git merge-base HEAD main`
# (working tree included), which is the per-crate delta a PR states.
# Without a `main` ref only the counts print.
size() { git ls-files "$1" | grep -v loadbench | xargs cat | wc -l; }
base=$(git merge-base HEAD main 2>/dev/null || true)
delta() { git diff --numstat "$base" -- "$1" | grep -v loadbench | awk '{ n += $1 - $2 } END { printf "%+d", n }'; }
row() {
    if [ -n "$base" ]; then
        printf '%8d  %7s  %s\n' "$(size "$1")" "$(delta "$1")" "$2"
    else
        printf '%8d  %s\n' "$(size "$1")" "$2"
    fi
}
if [ -n "$base" ]; then
    printf '%8s  %7s  (delta against merge-base %s)\n' lines delta "$(git rev-parse --short "$base")"
fi
for c in crates/*/; do
    row "$c*.rs" "$(basename "$c")"
done
row '*.rs' 'total outside loadbench (crates + root src/, tests/, examples/)'

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

echo "== one tanh, one exp (grep gate over crates/tensor/src and crates/models/src, test modules excluded) =="
# Every f32 `tanh` and `exp` is ops/libm.rs's transcription of glibc
# 2.36's `tanhf` or `__expf_fma`, so the goldens are the code's own bits,
# not whatever the host libm (or its ifunc) returns; this fails the build
# if a libm call comes back. (`Var::tanh` in models is the crate's op, so
# the `tanh` half covers tensor only; eval's f64 `exp` is not f32 maths.)
for f in $(find crates/tensor/src crates/models/src -name '*.rs'); do
    src=$(sed '/^#\[cfg(test)\]/,$d' "$f")
    if [[ $f == crates/tensor/* ]] && grep -nE '\.tanh\(\)|f32::tanh' <<<"$src"; then
        echo "tensor: $f calls libm's tanh (see above); use ops::libm::tanhf" >&2
        exit 1
    fi
    if grep -nE '\.exp\(\)|f32::exp' <<<"$src"; then
        echo "$f calls libm's exp (see above); use ops::libm::expf or exp_in_place" >&2
        exit 1
    fi
done

echo "== one benchmark (loadbench measures, cargo test checks; nothing beside them) =="
# The nine micro-benches, their harness and the tracked result files they
# overwrote in place went in PR 24; every cell they timed is a loadbench
# probe. This fails the build if a second measurement system starts to
# come back. The knob pattern is split so this file does not match itself.
bench_knob='RAT_''BENCH_'
if [ -e crates/bench/benches ]; then
    echo "bench: crates/bench/benches exists; add a loadbench probe instead" >&2
    exit 1
fi
if git ls-files 'BENCH_*.json' | grep .; then
    echo "bench: tracked result file(s) above; loadbench prints its result, nothing is committed" >&2
    exit 1
fi
if git ls-files '*Cargo.toml' | xargs grep -n 'harness = false'; then
    echo "bench: a manifest above declares a custom bench harness" >&2
    exit 1
fi
if git ls-files '*.rs' '*.toml' '*.sh' | xargs grep -n "$bench_knob"; then
    echo "bench: a ${bench_knob}* knob is named above; the workspace reads no bench environment" >&2
    exit 1
fi

echo "== no allocator tuning (freed memory goes back to the allocator's defaults) =="
# Keeping freed pages process-wide takes a fifth off a training step, but
# the fixture's training memory then stays resident for the whole serving
# run (offline_batch8_unique peak RSS 32.6 -> 308.7 MB, EXPERIMENTS.md
# "Training on both cores"). Training reuses memory by freeing its graph
# during backward instead. The pattern is split so this file does not
# match itself.
alloc_knob='mal''lopt|MAL''LOC_|global''_allocator'
if git ls-files '*.rs' '*.toml' '*.sh' | xargs grep -nE "$alloc_knob"; then
    echo "alloc: allocator tuning is named above; the workspace runs on the default allocator settings" >&2
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

echo "== ci.sh: all gates passed =="
