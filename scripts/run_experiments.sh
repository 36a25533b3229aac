#!/usr/bin/env bash
# Regenerate every paper artifact: build the `experiments` binary in
# release once, then run each artifact `experiments --list` names in turn,
# one output file per artifact, each opening with a run header (commit,
# nproc, scale). Exits nonzero if the build or any artifact fails.
#
# Usage: scripts/run_experiments.sh [quick|standard|full] [OUT_DIR]
# (default: quick, target/experiments)
set -u
cd "$(dirname "$0")/.."
SCALE="${1:-quick}"
OUT="${2:-target/experiments}"
mkdir -p "$OUT"

cargo build --release --offline -p ratatouille-bench --bin experiments || exit 1
bin=./target/release/experiments
names="$("$bin" --list)" || exit 1

header="commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain -- crates src Cargo.toml Cargo.lock 2>/dev/null)" ]; then
  header="$header+dirty"
fi
header="$header nproc=$(nproc) scale=$SCALE"

failed=()
for name in $names; do
  out="$OUT/$name.txt"
  echo "=== $name ($header) ==="
  echo "# run header: bin=$name $header" > "$out"
  RATATOUILLE_SCALE="$SCALE" "$bin" "$name" >> "$out" 2>&1
  code=$?
  echo "    exit=$code -> $out"
  [ "$code" -eq 0 ] || failed+=("$name")
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "all experiments done"
