//! # squash-ledger — one seeded benchmark for the squash system
//!
//! Four workloads, each run in its own process, measure what users of
//! `squashc`, `squashrun` and `squashd` pay on the host clock, next to the
//! paper's simulated-cycle and size ratios:
//!
//! * `run_paper` — the interpreter on the paper's eleven programs;
//! * `run_trap` — the decompression trap on eleven cold-path-heavy
//!   corpus programs;
//! * `compile` — the emit pipeline on all 22 of those programs;
//! * `fleet` — per-request costs of `core::fleet::Fleet`.
//!
//! End-to-end metrics come from untraced rounds. A traced round then times
//! every layer from outside, through its public functions, and reports
//! per-layer metrics. See `README.md` for the metric tables and the
//! layer-to-end-to-end map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod programs;
pub mod trace;
pub mod workloads;
