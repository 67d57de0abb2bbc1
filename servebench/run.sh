#!/usr/bin/env bash
# Build adcast's serving binaries and the benchmark from source, then run
# one workload. All arguments pass through to the benchmark binary:
#
#   bash servebench/run.sh --workload ingest-heavy --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/net ] || [ ! -f src/bin/serve.rs ]; then
  echo "servebench: run from the adcast repository root (Cargo.toml and crates/ not found)" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin adcast-serve --bin adcast-router >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
