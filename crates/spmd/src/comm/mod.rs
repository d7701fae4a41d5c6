//! Communication sets for two-sided array assignments
//! `A(lₐ : uₐ : sₐ) = B(l_b : u_b : s_b)`.
//!
//! When the right-hand side lives on different processors than the
//! left-hand side, node programs must exchange elements. Computing *which*
//! elements (the communication sets) is the companion problem Chatterjee
//! et al. and Stichnoth et al. study; here it is a substrate for the
//! examples, built directly on the access-sequence machinery: each source
//! processor enumerates the RHS elements it owns with the core algorithm
//! and maps each element's section rank to its LHS home. The fused
//! statement compiler ([`crate::fuse`]) turns these sets into per-node
//! epochs — the one executor that moves array data.
//!
//! The module splits along the two halves of the problem:
//!
//! * [`schedule`] — *what moves*: [`Transfer`]/[`TransferRun`] rows in
//!   flat CSR storage, built by enumeration or in closed form, plus the
//!   [`MessageMatrix`] planning query;
//! * [`wire`] — *how it is represented*: the [`PackValue`] payload hooks
//!   (run-coalesced gather/scatter fast paths) and the run-encoded wire
//!   format (`RunSpan` headers + fixed-width payload bytes) the
//!   serialized backends ship.

pub mod schedule;
pub mod wire;

pub use schedule::{CommSchedule, MessageMatrix, Transfer, TransferRun};
pub use wire::{PackValue, RunSpan};

/// The data-movement strategy cached schedules and fused programs are
/// keyed by. Fused epochs are the only executor, so this has a single
/// variant; it survives because the plan-cache key and the
/// [`crate::fuse::compile`] signature still carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One message per non-empty (src, dst ≠ src) pair per epoch, with
    /// same-node transfers applied in place.
    Batched,
}
