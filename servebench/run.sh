#!/usr/bin/env bash
# Builds the selc-serve benchmark (and the repository crates it links) in
# release mode, then runs it. From the repository root:
#
#   bash servebench/run.sh --workload warm_repeat --seed 1 --seconds 25 --trace 0
#
# Cargo's output goes to stderr; the last stdout line is the result.
# The build goes to $CARGO_TARGET_DIR when set, else servebench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/selc-servebench" "$@"
