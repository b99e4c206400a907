#!/usr/bin/env bash
# Hermetic CI: everything here runs fully offline — the workspace has no
# crates.io dependencies (see crates/testkit and DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "== format check =="
cargo fmt --check

echo "== board crate dependencies (no test tooling) =="
# udma-nic models the NI board alone: the cluster's wire, whose chaos
# link draws from the testkit PRNG, lives in udma. Fail if the board
# crate's normal (non-dev) dependency tree pulls the test kit back in.
nic_deps=$(cargo tree --offline -p udma-nic -e normal)
if grep -q udma-testkit <<<"$nic_deps"; then
  echo "udma-nic depends on udma-testkit outside its tests" >&2
  exit 1
fi

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (workspace, offline) =="
cargo test -q --offline --workspace

echo "== VA property/explorer replay (pinned seed) =="
# Deterministic replay of the local virtual-address DMA property suite
# under a pinned seed so a CI failure names a reproducible case.
UDMA_PROP_SEED=3603 cargo test -q --offline --test va_dma

echo "== translation-pipeline replay (pinned seed) =="
# Second seed over the VA suite aimed at the pipeline additions: the
# pipelined-vs-demand oracle equivalence property (DESIGN.md §4e, E15).
UDMA_PROP_SEED=3605 cargo test -q --offline --test va_dma

echo "== remote VA and lossy-link replay on ClusterSim (pinned seed) =="
# Seeded replay of the cluster-simulation remote suites: the
# straight-line protection oracle, the announced one-NACK range and the
# receive-side swap-in (remote_va_dma), the chaos-vs-lossless-oracle
# acceptance property and the lossless-plan zero-delta pin
# (lossy_link), and the per-fault-kind chaos tests (fault_injection),
# pinned for bisection (DESIGN.md §4c, §4d).
UDMA_PROP_SEED=3604 cargo test -q --offline \
  --test remote_va_dma --test lossy_link --test fault_injection

echo "== sharded determinism replay (pinned seed) =="
# Differential replay of the sharded sim core: sequential oracle vs the
# parallel runner at 1/2/4/8 shards over the E13/E14/E15 workload
# shapes, plus the kernel ordering property and the NACK-vs-retransmit
# boundary-race exploration, under a pinned seed for bisection.
UDMA_PROP_SEED=3607 cargo test -q --offline \
  --test sharded_determinism --test sharded_props

echo "== context-pressure replay (pinned seed) =="
# Seeded replay of the context-virtualization suite: the spill/fill
# round-trip oracle property, the exhaustive steal-vs-in-flight race
# exploration, and the hostile-tenant QoS acceptance bound (E17,
# DESIGN.md §4g), pinned for bisection.
UDMA_PROP_SEED=3608 cargo test -q --offline --test ctx_virt

echo "== coherence replay (pinned seed) =="
# Seeded replay of the MESI coherence suite: the differential oracle
# property (coherent and flush-bracketed non-coherent worlds vs the
# flat image), the engine's frame-to-frame copy vs a DMA read then a
# DMA write in every coherence mode, the exhaustive snoop-race
# exploration, the missing-flush stale-data test and the disabled-cache
# zero-overhead pin (E18, DESIGN.md §4h), pinned for bisection.
UDMA_PROP_SEED=3609 cargo test -q --offline --test coherence

echo "== node-fault crash replay (pinned seed) =="
# Seeded replay of the node fault domain: the random crash-plan ×
# workload property (every transfer settles Complete or an exact
# in-order prefix, 2/4-shard runs digest-equal to the oracle), the
# stale-incarnation fencing and fail-fast tests, the exhaustive
# crash-timing race explorer, the crash-churn differential at 1/2/4/8
# shards, and the no-plan zero-delta pin (E19, DESIGN.md §4i).
UDMA_PROP_SEED=3610 cargo test -q --offline \
  --test node_fault --test sharded_determinism

echo "== descriptor-ring replay (pinned seed) =="
# Seeded replay of the doorbell-batched descriptor rings: the
# batched-N ≡ N-sequential-posts differential property, the raw-slot
# ring adversary property (every kind code, wild links, lengths and
# tails: no panic, every non-launch a counted reject, only the posting
# context's writable frames change), the exhaustive doorbell × steal ×
# fault-service explorer, the chain-overflow and retired-kind
# regressions, the depth-1 zero-delta pin against the per-post
# baseline, the E20 amortization shape, and the save-refuses-pending-
# ring regression (E20, DESIGN.md §4j).
UDMA_PROP_SEED=3611 cargo test -q --offline --test descring --test ctx_virt

echo "== sim core self-bench (events/sec) =="
# The E16 self-benchmark: emits BENCH json for the sim target (collected
# below) and digest-checks every parallel row against the oracle.
cargo bench -q --offline -p udma-bench --bench sim > /dev/null

echo "== repository benchmark smoke (output checks) =="
# Every workload of the end-to-end benchmark once, reduced: it verifies
# each round's output (destination images, per-transfer records, the
# cluster read-back against the posted payload) and exits non-zero on
# any mismatch.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload all --smoke \
  > /dev/null

echo "== non-test line counts (informational) =="
# Lines before each file's first #[cfg(test)], for the cluster module,
# udma-nic, the OS (paging, fault service, context cache), the IOMMU,
# memory, and the Machine world's bus, CPU and assembly, so the
# line-count claims in CHANGES.md and ROADMAP.md can be reproduced.
# Gates nothing.
scripts/loc.sh crates/core/src/cluster crates/nic/src crates/os/src \
  crates/iommu/src crates/mem/src crates/bus/src crates/cpu/src \
  crates/core/src/machine.rs || true

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# Broken or ambiguous intra-doc links fail here instead of silently
# linking to the wrong item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== experiments smoke vs golden (simulated results) =="
# The reduced report's simulated numbers are deterministic, so the whole
# report is diffed against a committed golden after masking the only
# host-dependent fields (E16 wall, events/s, speedup, host cores). After
# an intended change to a simulated number, regenerate the golden with
#   cargo run --release --offline -p udma-bench --bin experiments -- --smoke \
#     | awk -f crates/bench/golden/mask-host.awk > crates/bench/golden/experiments-smoke.md
# and explain every moved number in EXPERIMENTS.md.
mkdir -p target
cargo run --release --offline -p udma-bench --bin experiments -- --smoke \
  | awk -f crates/bench/golden/mask-host.awk > target/experiments-smoke.md
diff -u crates/bench/golden/experiments-smoke.md target/experiments-smoke.md
echo "smoke OK"

echo "== benches (BENCH json) =="
cargo bench -q --offline -p udma-bench > /dev/null

echo "== collect BENCH_RESULTS.json =="
# Concatenate every per-target target/bench-json/BENCH_*.json array into
# one top-level object keyed by target name, at the repo root.
{
  echo "{"
  first=1
  for f in target/bench-json/BENCH_*.json; do
    [ -e "$f" ] || continue
    name=$(basename "$f" .json)
    name=${name#BENCH_}
    [ $first -eq 1 ] || echo ","
    first=0
    printf '"%s": ' "$name"
    cat "$f"
  done
  echo "}"
} > BENCH_RESULTS.json
echo "wrote BENCH_RESULTS.json ($(grep -c '"name"' BENCH_RESULTS.json) reports)"

echo "== CI green =="
