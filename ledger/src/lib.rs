//! # bcag-ledger — the layer-ledger benchmark
//!
//! Four closed-loop workloads, each one driver thread against a single
//! resident pool of `p = 2` nodes:
//!
//! * `warm_small` — 13 statement shapes over 4096-element arrays, run
//!   round-robin: per-statement fixed cost (cache hit, dispatch, epoch
//!   prologue) dominates;
//! * `warm_large` — 7 of the same kinds over 256K-element arrays (a 4–6 MB
//!   working set per op: past L2, far inside L3): kernels, bulk transport
//!   and L2-blocked epochs dominate;
//! * `cold_shapes` — every op a statement shape never seen before: AM
//!   table, run plan, schedule build, fused compile, first epoch, and the
//!   cache's miss/insert/evict path;
//! * `scripts` — HPF scripts through `bcag_rt::Interp::run`: parsing,
//!   interpretation, array allocation and `redistribute`.
//!
//! The untraced run reports end-to-end metrics. The traced run sends each
//! op through the same public calls the default path makes, timed from
//! here ([`spans::Ledger`]), and reports every layer's share of the op and
//! the unattributed residue. Every op's output is checked against a
//! sequential reference computed over global indices.

pub mod bank;
pub mod elem;
pub mod probe;
pub mod run;
pub mod script;
pub mod spans;
pub mod workload;
