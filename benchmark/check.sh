#!/bin/sh
# Lint, test and smoke-run the benchmark package. The repository's own CI
# does not reach into this directory, so this script is its gate.
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --offline --release
cargo run --manifest-path "$manifest" --offline --release -- run --workload all --quick
