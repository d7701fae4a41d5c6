//! # bcag-spmd — simulated SPMD distributed-memory machine
//!
//! The paper's experiments ran on a 32-node Intel iPSC/860 hypercube. This
//! crate simulates that execution model so the end-to-end path — table
//! construction, node-code traversal, communication — can run and be
//! measured on a shared-memory host:
//!
//! * [`machine`] — SPMD launch: one thread per simulated node, each with
//!   exclusive local memory, plus the per-node timing discipline
//!   ("maximum over all processors") the paper reports;
//! * [`pool`] — the resident worker pool behind every launch: the
//!   dispatching thread runs node 0, `p − 1` persistent threads run the
//!   rest, over a reusable fabric with per-node buffer arenas;
//! * [`transport`] — the fabric those node threads exchange envelopes
//!   over: lock-free shared-memory SPSC rings carrying boxed buffers
//!   ([`TransportKind::Shm`]) or the serialized wire format
//!   ([`TransportKind::Proc`], selected by [`Machine::with_transport`]),
//!   plus the pipe session behind the `bcag spmd` multi-process
//!   launcher;
//! * [`darray`] — distributed arrays in the `cyclic(k)` layout of Figure 1;
//! * [`codeshapes`] — the four node-code shapes of Figure 8 that Table 2
//!   compares;
//! * [`assign`] — owner-computes section statements
//!   (`A(l:u:s) = expr`) compiled to plans + traversal loops;
//! * [`comm`] — communication sets for two-sided assignments
//!   `A(secA) = B(secB)` and the run-encoded wire format their messages
//!   travel in;
//! * [`csr`] — the flat compressed-sparse-row storage the schedules and
//!   2-D rank decompositions are built on;
//! * [`cache`] — a process-wide, capacity-bounded cache of communication
//!   schedules and section plans keyed by their build parameters, sharded
//!   over `next_pow2(4 × cores)` read-mostly lock domains with
//!   single-flight builds so concurrent drivers don't serialize on it;
//! * [`reduce`] — reductions over sections (`SUM`, `DOT_PRODUCT`, custom
//!   folds) with the same traversal machinery;
//! * [`dmatrix`] — 2-D distributed matrices over an HPF mapping, with SPMD
//!   updates of rectangular, diagonal and trapezoidal regions;
//! * [`statement`] — whole array statements `A(secA) = f(B(secB), ...)`
//!   (gather + owner-computes), two-sided copies and block-size
//!   redistribution;
//! * [`fuse`] — the plan compiler behind those statements and the only
//!   code that moves array data: compiles a whole statement shape into
//!   one fused per-node epoch (stage→pack/send→drain/scatter→apply,
//!   gap-specialized kernels, a single pool dispatch), cached next to
//!   the schedules, and runs it as an expression, a copy, or — inside a
//!   `bcag spmd` node process — replicated over the session pipes;
//! * [`pack`] — message vectorization: pack/unpack a node's share of a
//!   section into contiguous buffers, run-coalesced into slice copies by
//!   the [`bcag_core::runs`] contiguity analysis of the gap table.
//!
//! ```
//! use bcag_spmd::{darray::DistArray, assign::assign_scalar, codeshapes::CodeShape};
//! use bcag_core::{section::RegularSection, method::Method};
//!
//! // A(0:99:7) = 100.0 on a 4-processor cyclic(8) layout.
//! let mut a = DistArray::new(4, 8, 100, 0.0f64).unwrap();
//! let sec = RegularSection::new(0, 99, 7).unwrap();
//! assign_scalar(&mut a, &sec, 100.0, Method::Lattice, CodeShape::TwoTableLoop).unwrap();
//! assert_eq!(a.to_global()[14], 100.0);
//! assert_eq!(a.to_global()[15], 0.0);
//! ```

#![warn(missing_docs)]
// `deny` rather than `forbid`: the worker pool's epoch slot needs two
// audited `#[allow(unsafe_code)]` sites in [`pool`] (lifetime erasure of
// the dispatched body and its call on a worker, guarded by the epoch
// barrier), its worker pinning two C-library affinity calls, and the
// shared-memory fabric's SPSC ring slots in [`transport::ring`] need raw
// shared mutability under the single-producer/single-consumer contract.
// Everything else in the crate remains safe code.
#![deny(unsafe_code)]

pub mod assign;
pub mod blas1;
pub mod cache;
pub mod codeshapes;
pub mod comm;
pub mod comm2d;
pub mod csr;
pub mod darray;
pub mod dmatrix;
pub mod fuse;
pub mod machine;
pub mod pack;
pub mod pool;
pub mod reduce;
pub mod shift;
pub mod statement;
pub mod stats;
pub mod transport;

pub use assign::{apply_section, assign_scalar, plan_section, NodePlan};
pub use blas1::{asum, axpy, iamax, nrm2, scal};
pub use codeshapes::CodeShape;
pub use comm::{CommSchedule, ExecMode, MessageMatrix, PackValue, RunSpan, Transfer, TransferRun};
pub use comm2d::assign_matrix;
pub use csr::Csr;
pub use darray::DistArray;
pub use dmatrix::DistMatrix;
pub use fuse::{default_fused, epoch_block_elems, last_blocked, FuseCensus, FusedMode};
pub use machine::Machine;
pub use pack::gather_section;
pub use pool::{LaunchMode, NodeCtx};
pub use reduce::{dot_sections, reduce_section, sum_section};
pub use shift::{cshift, eoshift};
pub use statement::{assign_array, assign_expr, redistribute};
pub use stats::{
    block_size_tradeoff, comm_stats, fuse_census, load_stats, per_node_packed_from_trace,
    CommStats, LoadStats,
};
pub use transport::TransportKind;
