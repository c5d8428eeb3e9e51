#!/usr/bin/env bash
# Regenerates every table and figure of the paper and both verification
# artifacts. Run from the repository root. Takes a few minutes in release.
set -euo pipefail

echo "== build =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --release

echo "== tables and figures =="
for b in table1_directory_cost fig4_nodemap_precision table2_load_latency \
         fig6_starvation fig10_store_latency workload_figures; do
  echo; echo "---- $b ----"
  cargo run --release -q -p cenju4-bench --bin "$b"
done

echo
echo "== extensions =="
cargo run --release -q --example update_protocol
