//! The transport fabric of the SPMD machine.
//!
//! The paper's node programs exchange run-encoded messages ([`crate::RunSpan`]
//! headers plus a typed payload); *how* those messages travel is a
//! machine property, not an algorithm property. Inside one process they
//! travel over one fabric, the lock-free shared-memory rings of
//! [`ring`]: `p × p` fixed-capacity SPSC rings with acquire/release
//! indices and spin → yield → park receivers. Each node's
//! [`crate::pool::NodeCtx`] holds its ring endpoint and layers poison
//! and barrier signalling on top of it. The fabric carries type-erased
//! [`Envelope`]s in one of two payload forms:
//!
//! * [`TransportKind::Shm`] — boxed in-memory buffers (the default);
//! * [`TransportKind::Proc`] — the same rings carrying *serialized*
//!   payloads: fused epochs encode the run-encoded wire format
//!   (`comm::wire`) into byte frames instead of moving boxed buffers,
//!   exercising exactly the bytes that `bcag spmd --procs p` ships
//!   between real OS processes (see [`proc`] for the multi-process
//!   session itself).
//!
//! Selection: [`crate::Machine::with_transport`] per machine; inside a
//! `bcag spmd` node process [`active_transport`] is `Proc`.

pub mod proc;
pub mod ring;

use std::any::Any;

/// A type-erased fabric message. Fused epochs ship one envelope per
/// message block per (src, dst) pair.
pub type Envelope = Box<dyn Any + Send>;

/// Marker envelope broadcast by a panicking node job so peers blocked in
/// [`crate::pool::NodeCtx::recv`] fail fast instead of hanging.
pub(crate) struct Poison;

/// Barrier arrival token (node `m` → node 0). See
/// [`crate::pool::NodeCtx::barrier`].
pub(crate) struct BarrierArrive;

/// Barrier release token (node 0 → everyone).
pub(crate) struct BarrierRelease;

/// Which payload form a machine's node contexts exchange over the ring
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Boxed in-memory buffers on the shared-memory rings.
    Shm,
    /// Ring buffers carrying the serialized wire format — the in-process
    /// twin of the `bcag spmd` multi-process launcher.
    Proc,
}

impl TransportKind {
    /// Stable lowercase name, used in bench labels and trace tags.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Shm => "shm",
            TransportKind::Proc => "proc",
        }
    }

    /// Whether executors should ship the serialized wire format instead
    /// of boxed in-memory buffers on this fabric.
    pub fn serializes(&self) -> bool {
        matches!(self, TransportKind::Proc)
    }

    /// Every kind (test matrices iterate this).
    pub const ALL: [TransportKind; 2] = [TransportKind::Shm, TransportKind::Proc];
}

/// The transport communication will actually run over right now: inside
/// a `bcag spmd` node process the multi-process session's serialized
/// wire ([`TransportKind::Proc`]), otherwise boxed envelopes on the
/// rings ([`TransportKind::Shm`]). Callers keying cached plans on the
/// execution context use this, so the key matches what the executors
/// will really do.
pub fn active_transport() -> TransportKind {
    if proc::active().is_some() {
        TransportKind::Proc
    } else {
        TransportKind::Shm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_named_and_only_proc_serializes() {
        assert_eq!(TransportKind::ALL.map(|k| k.name()), ["shm", "proc"]);
        assert!(TransportKind::Proc.serializes());
        assert!(!TransportKind::Shm.serializes());
        assert_eq!(active_transport(), TransportKind::Shm);
    }
}
