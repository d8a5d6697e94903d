#!/usr/bin/env bash
# The one timing gate: the repository's benchmark on a base ref and on this
# checkout, on one machine, in alternating pairs, judged by `compare` with
# the bounds of BENCHMARK.json. Exit status is `compare`'s.
#
#   ci/bench-ab.sh <base-ref> [pairs]     CI uses 3 pairs; a claim needs >= 10
#
# Results land in target/bench-ab/{parent,change}/run-<pair>.json.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: ci/bench-ab.sh <base-ref> [pairs]}
pairs=${2:-3}

if ! git diff --quiet "$base" -- benchmark BENCHMARK.json; then
    echo "bench-ab: the benchmark itself differs from $base, so the two sides would not be"
    echo "bench-ab: measured alike; the baseline is re-measured after merge. Nothing to judge."
    echo "bench-ab: differing paths (a rewritten benchmark/Cargo.lock is restored with"
    echo "bench-ab: \`git checkout -- benchmark/Cargo.lock\`):"
    git diff --name-only "$base" -- benchmark BENCHMARK.json | sed 's/^/bench-ab:   /'
    exit 0
fi

work=target/bench-ab
rm -rf "$work"
mkdir -p "$work"/{base,parent,change}
git archive "$base" | tar -x -C "$work/base"
cargo build --release --offline --quiet --manifest-path "$work/base/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
declare -A bin=(
    [parent]=$work/base/benchmark/target/release/vital-benchmark
    [change]=benchmark/target/release/vital-benchmark
)

# The side that runs first alternates, so neither always meets the warmer
# (or the busier) machine. One seed throughout: `mean_error_m` repeats
# exactly for a seed, so `compare` can hold it to its 2% bound.
for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    if ((pair % 2 == 0)); then order=(change parent); fi
    for side in "${order[@]}"; do
        echo "bench-ab: pair $pair/$pairs, $side"
        "${bin[$side]}" run --seed 1 --out "$work/$side/run-$pair.json"
    done
done

"${bin[change]}" compare "$work/parent" "$work/change"
