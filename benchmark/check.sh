#!/usr/bin/env bash
# Root CI does not see this standalone workspace; this is its gate:
# formatting, lints, unit tests, and a smoke run of every workload.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline
cargo run --release --offline -- run --quick
cargo run --release --offline -- trace --quick
echo "benchmark check: OK"
