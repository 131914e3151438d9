#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build this package from
# source if needed, then run one workload.
#
#   bash etlv-bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds into $CARGO_TARGET_DIR when set (relative to the working
# directory, as cargo reads it), else into etlv-bench/target. Path-only
# dependencies: no registry access. Fails, printing no result, when the
# repository's crates are not beside this directory. `--trace 1` is
# handed on by etlv-bench itself to the etlv-bench-traced built beside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/etlv-bench" "$@"
