//! `udma-testkit` — the in-tree deterministic test and bench kit.
//!
//! The workspace builds with **zero crates.io dependencies** so that
//! `cargo build --offline && cargo test --offline` works on an
//! air-gapped machine. Everything the suites used to pull from `rand`,
//! `proptest` and `criterion` lives here instead, stripped down to the
//! exact surface this repository needs:
//!
//! - [`rng`]: a seedable xoshiro256** PRNG (SplitMix64-expanded seed)
//!   with `gen_range`/`gen_bool`/`gen_f64`, for the randomized
//!   schedulers and attack searches.
//! - [`prop`]: a minimal property-testing harness — strategies for
//!   integers, ranges, one-of, tuples and vectors, a fixed case count,
//!   greedy integer/vector shrinking, and a printed seed that replays a
//!   failure via `UDMA_PROP_SEED`.
//! - [`sched`]: a bounded interleaving explorer — exhaustive merge-order
//!   enumeration up to a schedule budget, then a seeded-random tail —
//!   backing the E3–E6 race and attack explorations.
//! - [`crc`]: CRC-32, the checksum pinned memory images and event
//!   logs are compared by.
//! - [`bench`](mod@bench): a warmup+iterations wall-clock timer with
//!   median/p10/p90 JSON output, so the bench targets are plain
//!   harness-free binaries that emit `BENCH_*.json`-shaped records.
//!
//! Determinism is the design rule throughout: every random decision
//! flows from an explicit `u64` seed, and every failure report prints
//! the seed that reproduces it.

#![forbid(unsafe_code)]

pub mod bench;
pub mod crc;
pub mod prop;
pub mod rng;
pub mod sched;

pub use crc::{crc32, Crc32};
pub use rng::TestRng;
