#!/usr/bin/env bash
# The repo benchmark: builds the harness and runs it.
#
#   run.sh [--seed S] [--seconds T] [--out DIR]   all four workloads -> DIR/results.json
#   run.sh --workload W --seed S --seconds T --trace 0|1 [--out DIR]
#                                                 one workload, one JSON line last
#   run.sh --compare A.json B.json                better / worse / unchanged / unresolved
#   run.sh --smoke                                every workload at 1/10 length + unit tests
#
# Run it from the repository root. It builds offline, into
# $CARGO_TARGET_DIR if set and benchmarks/target otherwise, and writes
# only there and under --out (default benchmarks/out).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

# One thread per child, and the program's own defaults.
unset ATOM_EVAL_WORKERS

cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
bin="$target/release/atom-benchmarks"

mode=all
for arg in "$@"; do
  case "$arg" in
    --workload) mode=run ;;
    --compare) mode=compare ;;
    --smoke) mode=smoke ;;
  esac
done

case "$mode" in
  run) exec "$bin" run --out "$here/out" "$@" ;;
  all) exec "$bin" all --out "$here/out" "$@" ;;
  compare)
    [ "$1" = --compare ] || { echo "usage: run.sh --compare A.json B.json" >&2; exit 2; }
    shift
    exec "$bin" compare "$@"
    ;;
  smoke)
    cargo test --offline --quiet --manifest-path "$manifest" --target-dir "$target" >&2
    exec "$bin" all --seconds 2 --out "$here/out/smoke"
    ;;
esac
