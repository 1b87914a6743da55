#!/usr/bin/env bash
# The one command of the repository's benchmark.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
#       builds ftbench (release) and runs workload W in its own process; the
#       last line of standard output is the JSON result BENCHMARK.json
#       describes.
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       the same for all six workloads, one process each; exits non-zero if
#       any of them reports a failed operation or an oracle mismatch.
#
# Every metric is also printed as `workload name value unit`.
set -euo pipefail
cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; by hand, build where .gitignore looks.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# ftbench is a package of its own (empty [workspace]) with path dependencies
# on the repository's crates: nothing is fetched, so stay offline.
cargo build --release --offline --quiet --manifest-path benchmark/ftbench/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/ftbench"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in exec_rnn exec_dense compile_cold serve_open serve_sat serve_decode; do
    out="$("$bin" --workload "$workload" "$@")" || status=1
    printf '%s\n' "$out"
    case "$(printf '%s\n' "$out" | tail -n 1)" in
        '{"correct": true,'*) ;;
        *) status=1 ;;
    esac
done
exit "$status"
