#!/usr/bin/env bash
# CI entry point: the package's unit tests, a 2 s-phase run and traced run of
# every workload, and the poisoned run, which has to fail.
set -euo pipefail
cd "$(dirname "$0")"

cargo test --offline
cargo run --release --offline --quiet -- run --smoke
cargo run --release --offline --quiet -- trace --smoke
if cargo run --release --offline --quiet -- run --smoke --poison >/dev/null; then
    echo "smoke: the run with a poisoned reference prediction passed; the gate is broken" >&2
    exit 1
fi
echo "smoke: ok"
