#![warn(missing_docs)]

//! # vda-bench
//!
//! The experiment harness regenerating every figure and table of the
//! paper's evaluation (§7), and the beyond-the-paper benches whose
//! deterministic numbers CI gates (`BENCH_*.json`).
//!
//! Run `cargo run -p vda-bench --release --bin experiments -- all` to
//! regenerate everything; individual ids (`fig2`, `fig12`, …, `sec72`)
//! run one experiment. Each report's notes set the measured result
//! against the paper's.
//!
//! The `check_bench` binary is CI's bench-regression gate: it diffs
//! freshly measured `BENCH_*.json` artifacts against the committed
//! baselines ([`benchcheck`]) and verifies the `vendor/` stubs match
//! the `Cargo.lock` pins.

pub mod benchcheck;
pub mod experiments;
pub mod harness;
pub mod setups;

pub use harness::{fmt_f, fmt_pct, Report, Table};
