#!/usr/bin/env bash
# Offline gate beside tier-1: lints + grep gates + build, with zero
# network access and warnings treated as errors. `cargo test -q` (tier-1,
# every crate's suite) is the only gate runner and `loadbench` the only
# benchmark; this script adds the structural gates a test cannot express,
# builds every test under `-Dwarnings`, times the oracles and builds and
# tests loadbench.
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

# Every `cargo test` step runs under a limit far above its time (the whole
# tier-1 suite is about 30 s warm; a cold build adds a few minutes), so a
# test that hangs fails its step by name instead of stalling the script.
TEST_LIMIT_S=900
timed() {
    local status=0
    timeout "$TEST_LIMIT_S" "$@" || status=$?
    if [ "$status" -eq 124 ]; then
        echo "ci.sh: timed out after ${TEST_LIMIT_S} s: $*" >&2
    fi
    return "$status"
}

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

echo "== clippy (path bans from clippy.toml: hashers, clocks, env, libm exp/tanh) =="
# Only the three disallowed_* lints run, on the crates whose code feeds a
# generation, a metric or a served response; test code is not linted.
# `--no-deps` keeps clippy off the path dependencies, so the crates left
# out of `-p` are the allowlist: obs (the clock authority), util
# (`DetMap` is its `HashMap` alias), bench, xlint and the root package.
clippy_start=$(date +%s%N)
cargo clippy -q --offline --no-deps \
    -p ratatouille-tensor -p ratatouille-models -p ratatouille-tokenizers \
    -p ratatouille-eval -p ratatouille-recipedb -p ratatouille-serving -p ratatouille \
    -- -A clippy::all -D clippy::disallowed_types -D clippy::disallowed_methods \
    -D clippy::disallowed_macros
clippy_ms=$(( ($(date +%s%N) - clippy_start) / 1000000 ))
echo "clippy: clean in ${clippy_ms}ms"

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
    if grep -nE 'WorkerPool|submit_traced|admit_traced' <<<"$src"; then
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

echo "== one telemetry path (grep gate over every crate's non-test source) =="
# `/metrics` and the request traces are the telemetry. Spans, their
# folded-stacks dump, the `/api/stats` counters and the traced decode
# twin each duplicated one of them; this fails the build if one comes
# back. The pattern is split so this file does not match itself.
deleted_telemetry='obs::''trace|span''!\(|folded_''stacks|Api''Stats|generate_''traced'
for f in $(git ls-files 'src/*.rs' 'crates/*/src/*.rs'); do
    # Non-test source: everything above the file's `#[cfg(test)]`.
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$deleted_telemetry"; then
        echo "telemetry: $f names a deleted telemetry path (see above)" >&2
        exit 1
    fi
done

echo "== one KV store (grep gate over crates/models/src) =="
# Every decode path writes K/V through `kv_block::BlockPool`; this fails
# the build if a second store, or a trait to read two of them, comes back.
if grep -rnE 'KvCache|StreamKv|KvSeam|KvRows' crates/models/src; then
    echo "models: a deleted KV store or seam is named above; BlockPool is the only store" >&2
    exit 1
fi

echo "== one tensor element, one split (grep gate over every crate's non-test source) =="
# `Tensor` holds f32, `Element` is the KV-cache element (f32 and F16
# only), and `par::parallel_rows_mut` is the one way a kernel splits a
# buffer across the pool. Two more split entry points, the raw-pointer
# wrapper one of their callers needed, an i8 cache element and a type
# parameter on `Tensor` were generality nothing ran; this fails the
# build if one comes back. The patterns are split so this file does not
# match itself.
deleted_generality='scatter''_mut|parallel''_chunks|Send''Ptr|impl Element for ''i8'
for f in $(git ls-files 'src/*.rs' 'crates/*/src/*.rs'); do
    # Non-test source: everything above the file's first `#[cfg(test)]`.
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$deleted_generality"; then
        echo "tensor: $f names a deleted split entry point or element (see above)" >&2
        exit 1
    fi
done
for f in $(git ls-files 'crates/tensor/src/*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Tensor''<[A-Za-z_]'; then
        echo "tensor: $f gives Tensor a type parameter (see above); a tensor holds f32" >&2
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

echo "== one experiments binary (crates/bench/src/bin holds experiments/ and loadbench/ only) =="
# Each paper artifact is a subcommand of `experiments`; twelve binaries
# each re-linked the whole stack. This fails the build if a second
# binary comes back beside them.
if ls -A crates/bench/src/bin | grep -vxE 'experiments|loadbench'; then
    echo "bench: crates/bench/src/bin holds the entries above; add a subcommand to experiments/main.rs instead" >&2
    exit 1
fi

echo "== no allocator tuning (freed memory goes back to the allocator's defaults) =="
# Allocator settings or a caching global allocator keep freed pages for
# the whole process, so the fixture's training memory stays resident for
# the whole serving run (offline_batch8_unique peak RSS 32.6 -> 308.7 MB,
# EXPERIMENTS.md "Training on both cores"). Training keeps only its own
# large buffers, in `tensor::recycle`, which `Pipeline::train` empties
# when it hands the model over (DESIGN §4b). The pattern is split so this
# file does not match itself.
alloc_knob='mal''lopt|MAL''LOC_|global''_allocator'
if git ls-files '*.rs' '*.toml' '*.sh' | xargs grep -nE "$alloc_knob"; then
    echo "alloc: allocator tuning is named above; the workspace runs on the default allocator settings" >&2
    exit 1
fi

echo "== build (release, warnings are errors) =="
cargo build --workspace --release --offline

echo "== test build (every default member's tests compile with warnings as errors) =="
# Tier-1 `cargo test -q` runs every crate's suite (the root manifest's
# `default-members`), so this script runs no test of its own beyond the
# timed oracles below; it only builds them all under `-Dwarnings`.
timed cargo test -q --offline --no-run

echo "== oracles (timed, not gated; tier-1 runs them too) =="
# The naive GPT-2 forward against every optimized route to the logits
# (`models::oracle`), at its fixed case budget.
oracle_start=$(date +%s%N)
timed cargo test -q --offline -p ratatouille-models --lib oracle::
echo "forward oracle: $(( ($(date +%s%N) - oracle_start) / 1000000 ))ms"
# The fused training attention against the op chain it replaced
# (`var_ops::attention_reference`): context, qkv gradient and the RNG's
# next draw, bit for bit.
attention_start=$(date +%s%N)
timed cargo test -q --offline -p ratatouille-tensor --lib attention_reference::
echo "attention property: $(( ($(date +%s%N) - attention_start) / 1000000 ))ms"

echo "== loadbench (the BENCHMARK.json package: builds against the public API, unit tests) =="
# Not a workspace member, so the step above cannot see an API break
# against it. Builds where `run.sh` does; that and the lock file cargo
# writes beside the manifest are git-ignored.
CARGO_TARGET_DIR=.bench_build \
    timed cargo test --release -q --offline --manifest-path crates/bench/src/bin/loadbench/Cargo.toml

echo "== ci.sh: all gates passed =="
