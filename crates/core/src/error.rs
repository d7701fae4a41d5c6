//! Error type shared by all `bcag-core` constructors.
//!
//! The enumeration paths themselves (gap-table walks, iterators) are
//! infallible once a value has been constructed; every precondition is
//! checked up front so the hot loops stay branch-light and panic-free.

use std::fmt;

/// Errors produced while validating distribution/section parameters or while
/// running an algorithm whose preconditions are not met.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BcagError {
    /// Number of processors must satisfy `p >= 1`.
    InvalidProcessorCount {
        /// The offending processor count.
        p: i64,
    },
    /// Block size must satisfy `k >= 1`.
    InvalidBlockSize {
        /// The offending block size.
        k: i64,
    },
    /// Regular-section stride must be nonzero.
    ZeroStride,
    /// Lower bound of a regular section must be a valid array index (`l >= 0`).
    NegativeLowerBound {
        /// The offending bound.
        l: i64,
    },
    /// Requested processor number is outside `[0, p)`.
    ProcessorOutOfRange {
        /// The requested processor.
        m: i64,
        /// The processor count it was checked against.
        p: i64,
    },
    /// The parameter combination overflows the supported `i64` index range.
    ///
    /// Construction requires that one full access period (`s * p * k`) and
    /// all intermediate products fit comfortably in `i64`.
    Overflow,
    /// An algorithm-specific precondition failed; the message names it.
    ///
    /// For example the Hiranandani et al. method requires `s mod pk < k`.
    Precondition(&'static str),
    /// An upper bound `u < l` (with positive stride) describes an empty
    /// section where a non-empty one is required.
    EmptySection,
    /// Affine alignment coefficient must be nonzero.
    ZeroAlignmentStride,
    /// A message from a peer node process violated the wire protocol
    /// (truncated, mis-tagged, or the wrong size for its compiled
    /// block); the message names the violation.
    Protocol(&'static str),
}

impl fmt::Display for BcagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcagError::InvalidProcessorCount { p } => {
                write!(f, "invalid processor count p = {p}; need p >= 1")
            }
            BcagError::InvalidBlockSize { k } => {
                write!(f, "invalid block size k = {k}; need k >= 1")
            }
            BcagError::ZeroStride => write!(f, "regular section stride must be nonzero"),
            BcagError::NegativeLowerBound { l } => {
                write!(f, "regular section lower bound l = {l} must be >= 0")
            }
            BcagError::ProcessorOutOfRange { m, p } => {
                write!(f, "processor m = {m} out of range [0, {p})")
            }
            BcagError::Overflow => {
                write!(f, "parameters overflow the supported i64 index range")
            }
            BcagError::Precondition(msg) => write!(f, "precondition failed: {msg}"),
            BcagError::EmptySection => write!(f, "regular section is empty"),
            BcagError::ZeroAlignmentStride => {
                write!(f, "affine alignment coefficient `a` must be nonzero")
            }
            BcagError::Protocol(msg) => write!(f, "wire protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for BcagError {}

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, BcagError>;
