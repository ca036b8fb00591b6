#!/usr/bin/env bash
# Builds ddbench from source and runs one benchmark run:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Cargo's own output goes to stderr, so the
# last line on stdout is ddbench's JSON result. `exec` hands the process over
# to ddbench, so only one process runs while the benchmark measures.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/ddbench" run "$@"
