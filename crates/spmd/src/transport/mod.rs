//! Pluggable transport fabric for the SPMD machine.
//!
//! The paper's node programs exchange run-encoded messages ([`crate::RunSpan`]
//! headers plus a typed payload); *how* those messages travel is a
//! machine property, not an algorithm property. This module extracts
//! that axis behind the [`Endpoint`] trait — per-node send/recv of
//! type-erased [`Envelope`]s, plus poison and barrier signalling layered
//! on top by [`crate::pool::NodeCtx`] — so the same fused epochs run over
//! three backends:
//!
//! * [`TransportKind::Mpsc`] — the reference fabric: one `std::sync::mpsc`
//!   inbox per node. Simple, obviously correct, and the baseline every
//!   other backend is differentially tested against.
//! * [`TransportKind::Shm`] — a lock-free shared-memory fabric: `p × p`
//!   fixed-capacity SPSC ring buffers with acquire/release indices and
//!   busy-wait-then-park receivers (see [`ring`]). The slot discipline is
//!   `memmap`-ready: nothing in the protocol assumes a shared heap beyond
//!   the ring storage itself.
//! * [`TransportKind::Proc`] — the shm fabric with *serialized* payloads:
//!   fused epochs encode the run-encoded wire format (`comm::wire`) into
//!   byte frames instead of moving boxed buffers, exercising exactly the
//!   bytes that `bcag spmd --procs p` ships between real OS processes
//!   (see [`proc`] for the multi-process session itself).
//!
//! Selection: [`crate::Machine::with_transport`] per machine, or the
//! process-wide default from the `BCAG_TRANSPORT={mpsc,shm,proc}` env
//! var for A/B runs.

pub mod proc;
pub mod ring;

use std::any::Any;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

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

/// Which fabric a machine's node contexts exchange envelopes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Reference fabric: one `std::sync::mpsc` inbox per node.
    Mpsc,
    /// Lock-free shared-memory SPSC ring buffers.
    Shm,
    /// Ring buffers carrying the serialized wire format — the in-process
    /// twin of the `bcag spmd` multi-process launcher.
    Proc,
}

impl TransportKind {
    /// Stable lowercase name, used in bench labels, trace tags and the
    /// `BCAG_TRANSPORT` env var.
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::Shm => "shm",
            TransportKind::Proc => "proc",
        }
    }

    /// Parses a `BCAG_TRANSPORT` value.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "mpsc" => Some(TransportKind::Mpsc),
            "shm" => Some(TransportKind::Shm),
            "proc" => Some(TransportKind::Proc),
            _ => None,
        }
    }

    /// Whether executors should ship the serialized wire format instead
    /// of boxed in-memory buffers on this fabric.
    pub fn serializes(&self) -> bool {
        matches!(self, TransportKind::Proc)
    }

    /// All selectable kinds (test matrices iterate this).
    pub const ALL: [TransportKind; 3] =
        [TransportKind::Mpsc, TransportKind::Shm, TransportKind::Proc];
}

/// Process-default transport: 0 = unset, else `TransportKind as u8 + 1`.
static DEFAULT_TRANSPORT: AtomicU8 = AtomicU8::new(0);

/// The process-wide default [`TransportKind`], used by
/// [`crate::Machine::new`] and the statement entry points. Initialized
/// lazily from the `BCAG_TRANSPORT` env var (`mpsc`, `shm` or `proc`;
/// unset or unrecognized selects `mpsc`, the reference fabric).
pub fn default_transport() -> TransportKind {
    match DEFAULT_TRANSPORT.load(Ordering::Relaxed) {
        1 => TransportKind::Mpsc,
        2 => TransportKind::Shm,
        3 => TransportKind::Proc,
        _ => {
            let kind = std::env::var("BCAG_TRANSPORT")
                .ok()
                .as_deref()
                .and_then(TransportKind::parse)
                .unwrap_or(TransportKind::Mpsc);
            set_default_transport(kind);
            kind
        }
    }
}

/// Overrides the process-wide default [`TransportKind`] (benchmarks use
/// this to A/B fabrics within one process).
pub fn set_default_transport(kind: TransportKind) {
    let v = match kind {
        TransportKind::Mpsc => 1,
        TransportKind::Shm => 2,
        TransportKind::Proc => 3,
    };
    DEFAULT_TRANSPORT.store(v, Ordering::Relaxed);
}

/// The transport communication will actually run over right now: inside
/// a `bcag spmd` node process the multi-process session overrides every
/// selection, otherwise the process default applies. Callers keying
/// cached plans on the execution context use this, so the key matches
/// what the executors will really do.
pub fn active_transport() -> TransportKind {
    if proc::active().is_some() {
        TransportKind::Proc
    } else {
        default_transport()
    }
}

/// One node's handle on a fabric: point-to-point envelope exchange with
/// every peer of a `p`-node machine. Poison and barrier signalling are
/// layered on top by [`crate::pool::NodeCtx`] in terms of these
/// primitives, so every backend inherits them.
pub trait Endpoint: Send {
    /// This endpoint's node index in `0..p`.
    fn node(&self) -> usize;

    /// The machine size `p`.
    fn p(&self) -> usize;

    /// Delivers an envelope to node `dst`, blocking while the fabric is
    /// at capacity (ring backends; mpsc is unbounded).
    fn send(&mut self, dst: usize, env: Envelope);

    /// Best-effort non-blocking send used for teardown signalling
    /// (poison broadcast): returns `false` if the fabric would block or
    /// the peer is gone, rather than waiting.
    fn offer(&mut self, dst: usize, env: Envelope) -> bool;

    /// Blocks for the next envelope from any peer.
    fn recv(&mut self) -> Envelope;

    /// Returns a queued envelope if one is immediately available.
    fn try_recv(&mut self) -> Option<Envelope>;
}

/// Builds the `p` connected endpoints of a fabric, one per node.
pub(crate) fn connect(kind: TransportKind, p: usize) -> Vec<Box<dyn Endpoint>> {
    match kind {
        TransportKind::Mpsc => mpsc_fabric(p),
        TransportKind::Shm | TransportKind::Proc => ring::fabric(p),
    }
}

/// The reference fabric: one unbounded mpsc inbox per node plus a shared
/// vector of senders.
struct MpscEndpoint {
    m: usize,
    inbox: Receiver<Envelope>,
    peers: Arc<Vec<Sender<Envelope>>>,
}

fn mpsc_fabric(p: usize) -> Vec<Box<dyn Endpoint>> {
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..p).map(|_| channel::<Envelope>()).unzip();
    let peers = Arc::new(senders);
    inboxes
        .into_iter()
        .enumerate()
        .map(|(m, inbox)| {
            Box::new(MpscEndpoint {
                m,
                inbox,
                peers: Arc::clone(&peers),
            }) as Box<dyn Endpoint>
        })
        .collect()
}

impl Endpoint for MpscEndpoint {
    fn node(&self) -> usize {
        self.m
    }

    fn p(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, dst: usize, env: Envelope) {
        self.peers[dst]
            .send(env)
            .expect("fabric receivers live for the pool lifetime");
    }

    fn offer(&mut self, dst: usize, env: Envelope) -> bool {
        self.peers[dst].send(env).is_ok()
    }

    fn recv(&mut self) -> Envelope {
        self.inbox
            .recv()
            .expect("fabric senders live for the pool lifetime")
    }

    fn try_recv(&mut self) -> Option<Envelope> {
        self.inbox.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in TransportKind::ALL {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TransportKind::parse("tcp"), None);
        assert!(TransportKind::Proc.serializes());
        assert!(!TransportKind::Mpsc.serializes());
        assert!(!TransportKind::Shm.serializes());
    }

    #[test]
    fn mpsc_fabric_delivers_point_to_point() {
        let mut eps = mpsc_fabric(3);
        assert_eq!(eps[1].node(), 1);
        assert_eq!(eps[1].p(), 3);
        eps[0].send(2, Box::new(41i64));
        eps[1].send(2, Box::new(1i64));
        let a = *eps[2].recv().downcast::<i64>().unwrap();
        let b = *eps[2].try_recv().unwrap().downcast::<i64>().unwrap();
        assert_eq!(a + b, 42);
        assert!(eps[2].try_recv().is_none());
    }
}
