#!/usr/bin/env bash
# Builds the benchmark's two binaries (sctbench, and the repository's own
# figures binary that the figures_serial workload runs) and runs sctbench
# with the given arguments. Run from the repository root:
#
#   bash sctbench/run.sh --workload paper_small --seed 5 --seconds 25 --trace 0
#
# Binaries go to $CARGO_TARGET_DIR, or sctbench/target when it is unset.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/sctbench" "$@"
