//! # bcag-core — Block-Cyclic Address Generation
//!
//! Core algorithms reproducing **"A Linear-Time Algorithm for Computing the
//! Memory Access Sequence in Data-Parallel Programs"** (Kennedy,
//! Nedeljković, Sethi; PPOPP 1995).
//!
//! Given an array distributed `cyclic(k)` over `p` processors (the general
//! block-cyclic distribution of HPF) and a regular section `A(l : u : s)`,
//! each processor must enumerate the local memory addresses of the section
//! elements it owns, in increasing global index order. The answer is a start
//! address plus a cyclic table of memory gaps (`AM`) of period at most `k`.
//!
//! This crate provides:
//!
//! * [`lattice_alg`] — the paper's contribution: `O(k + min(log s, log p))`
//!   table construction via an integer-lattice basis (Figure 5);
//! * [`sorting_alg`] — the `O(k log k)` baseline of Chatterjee et al.
//!   (PPoPP'93), with comparison and radix sorts;
//! * [`hiranandani`] — the restricted `O(k)` method of Hiranandani et al.
//!   (ICS'94), valid when `s mod pk < k`;
//! * [`oracle`] — a brute-force reference for testing;
//! * [`walker`] — table-free address generation straight from the basis
//!   vectors `R` and `L` (the extension sketched at the end of Section 6.2);
//! * [`two_table`] — the offset-indexed `deltaM`/`NextOffset` tables that
//!   drive the fastest node-code shape of Figure 8(d);
//! * [`runs`] — run-length compilation of gap tables: contiguity analysis
//!   that folds `AM` into constant-gap runs so traversals become slice
//!   copies (`memcpy` when `s == 1`) instead of per-element walks;
//! * [`lower`] — lowering pass over compiled [`runs`]: flattens a
//!   `RunPlan` into shape-classified segments so plan compilers can bind
//!   gap-specialized kernels ahead of execution;
//! * [`tune`] — L2 transfer blocking: the block size a statement's
//!   transfers split into when its working set spills L2;
//! * [`fsm`] — the finite-state-machine view of the gap sequence used by
//!   Chatterjee et al. to describe the problem;
//! * [`aligned`] — affine alignments (`A(i)` at template cell `a·i + b`) by
//!   two applications of the core algorithm;
//! * [`viz`] — ASCII renderings of the paper's layout figures.
//!
//! ## Quickstart
//!
//! ```
//! use bcag_core::{params::Problem, method::{build, Method}};
//!
//! // The paper's worked example (Figure 6): p=4, k=8, l=4, s=9, proc 1.
//! let problem = Problem::new(4, 8, 4, 9).unwrap();
//! let pattern = build(&problem, 1, Method::Lattice).unwrap();
//! assert_eq!(pattern.start_global(), Some(13));
//! assert_eq!(pattern.gaps(), &[3, 12, 15, 12, 3, 12, 3, 12]);
//!
//! // Enumerate the first few local addresses the node program would touch.
//! let locals: Vec<i64> = pattern.iter().take(4).map(|a| a.local).collect();
//! assert_eq!(locals, vec![5, 8, 20, 35]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aligned;
pub mod basis;
pub mod codegen;
pub mod descending;
pub mod error;
pub mod fsm;
pub mod hiranandani;
pub mod intersect;
pub mod lattice;
pub mod lattice_alg;
pub mod layout;
pub mod locality;
pub mod lower;
pub mod method;
pub mod nth;
pub mod numth;
pub mod oracle;
pub mod params;
pub mod pattern;
pub mod radix;
pub mod runs;
pub mod section;
pub mod sorting_alg;
pub mod special;
pub mod start;
pub mod tune;
pub mod two_table;
pub mod virtual_views;
pub mod viz;
pub mod walker;

pub use error::{BcagError, Result};
pub use layout::Layout;
pub use lower::{lower_plan, LoweredSegment, ShapeClass};
pub use method::{build, Method};
pub use params::Problem;
pub use pattern::{Access, AccessPattern, CyclicPattern, Pattern};
pub use runs::{Run, RunPlan, RunShape, Segment};
pub use section::RegularSection;
pub use tune::{default_tune, TuneMode};
