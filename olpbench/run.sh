#!/usr/bin/env bash
# Builds the benchmark and the `olp` binary it serves through, in release
# mode and from source, then runs it with the given arguments:
#
#   bash olpbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Cargo's messages go to stderr; stdout carries only the benchmark's
# output, whose last line is the JSON result. The build lands in
# $CARGO_TARGET_DIR, or olpbench/target when that is unset.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/olpbench" "$@"
