//! The in-process fabric: `p × p` lock-free shared-memory SPSC rings.
//!
//! Every in-process launch exchanges its envelopes here, whichever
//! payload form ([`super::TransportKind`]) it ships. Each directed
//! (src, dst) pair owns one fixed-capacity Lamport ring:
//! the producer side is touched only by src's endpoint, the consumer
//! side only by dst's endpoint, so a `head`/`tail` pair of atomics with
//! acquire/release ordering is sufficient — no locks, no CAS on the hot
//! path. A full ring makes the producer busy-wait (counted as
//! `ring_full_spins`); an empty sweep makes the consumer walk the
//! spin → yield → park ladder ([`wait`], shared with the resident pool's
//! epoch waits): it spins, then yields, and then parks on its [`Latch`]
//! (`std::thread::park_timeout`, counted as `transport_park_ns`), to be
//! unparked by the next producer that publishes to it. A ring can fill,
//! so a node must never send more envelopes to one peer than the ring
//! holds before it receives: a fused epoch sends one envelope per peer.
//!
//! The slot discipline deliberately assumes nothing beyond the ring
//! storage being visible to both sides: indices are plain atomics and
//! slots are fixed-size, so the same protocol would run over a
//! `memmap`-style shared region byte-for-byte. In this workspace (no
//! external crates, hence no `mmap` binding) the rings live on the
//! shared heap; the multi-process launcher (`transport::proc`) instead
//! ships the serialized wire format over pipes.

// The ring's slot array is the one place the transport layer needs raw
// shared mutability; the SPSC contract (one producer endpoint, one
// consumer endpoint per ring, enforced by `fabric()` handing each
// direction to exactly one node) makes the accesses disjoint.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

use super::Envelope;
use crate::pool::lock_clean;

/// Slots per directed ring. Power of two; small enough that `p × p`
/// rings stay cheap at `p = 32`, far more than the one envelope per
/// (src, dst) pair a fused epoch sends.
pub(crate) const RING_CAP: usize = 64;

/// Empty sweeps a waiter spins through before it yields (a receiver
/// sweeps all its inbound rings; a pool waiter reads one counter), when
/// there is headroom to spin against a concurrently-running producer.
/// Without that headroom (one hardware thread, or more nodes than CPUs),
/// spinning only steals the core a producer needs, so the waiter skips
/// straight to the yield phase.
const RECV_SPIN_SWEEPS: u32 = 256;

/// Empty sweeps interleaved with `yield_now` after the spin phase and
/// before parking: on an oversubscribed core this hands the CPU to a
/// runnable producer at scheduler cost rather than wake-up latency.
const RECV_YIELD_SWEEPS: u32 = 64;

/// Spin-phase length for a `p`-node fabric or pool: [`RECV_SPIN_SWEEPS`]
/// when the host has real parallelism and a CPU for every node, zero
/// otherwise. On a 2-vCPU host, 32 nodes with spinning receivers ran a
/// small statement 2.2× slower than with receivers that yield at once.
pub(crate) fn spin_sweeps(p: usize) -> u32 {
    use std::sync::OnceLock;
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if cpus > 1 && p <= cpus {
        RECV_SPIN_SWEEPS
    } else {
        0
    }
}

/// Longest single park of a fabric receive before it sweeps its rings
/// again.
const PARK_SLICE: Duration = Duration::from_micros(200);

/// A fixed-capacity single-producer single-consumer ring.
///
/// `head` is the next slot to pop (written only by the consumer), `tail`
/// the next slot to push (written only by the producer); both grow
/// without bound and are reduced mod capacity on use, so `tail - head`
/// is the current occupancy.
pub(crate) struct Ring {
    slots: Box<[UnsafeCell<Option<Envelope>>]>,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: the SPSC contract makes slot accesses disjoint: the producer
// writes `slots[tail % cap]` only while that slot is outside the
// consumer's window (`tail - head < cap` checked with an Acquire load of
// `head`), and publishes it with a Release store of `tail`; the consumer
// mirrors this. Envelope is Send, so moving it across the fence is fine.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(cap: usize) -> Ring {
        assert!(
            cap.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        Ring {
            slots: (0..cap).map(|_| UnsafeCell::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: publishes `env`, or hands it back if the ring is
    /// full right now.
    pub(crate) fn try_push(&self, env: Envelope) -> Result<(), Envelope> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            return Err(env);
        }
        let slot = &self.slots[tail % self.slots.len()];
        // SAFETY: `tail - head < cap`, so the consumer cannot touch this
        // slot until the Release store below makes the write visible.
        unsafe { *slot.get() = Some(env) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: takes the oldest envelope, if any.
    pub(crate) fn try_pop(&self) -> Option<Envelope> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        // SAFETY: `head < tail`, so the producer published this slot
        // (Acquire above pairs with its Release) and will not rewrite it
        // until the Release store below moves it out of the window.
        let env = unsafe { (*slot.get()).take() }.expect("published slot holds an envelope");
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(env)
    }

    /// Current occupancy (racy; exact only from the consumer thread).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

/// Wakeup latch for one waiter. The waking side publishes its change,
/// sets `pending` and unparks whatever thread is registered; the waiter
/// registers itself, checks `pending`, and parks. Because `notify` reads
/// the registration under the sleeper lock after setting `pending`, a
/// waiter either sees `pending` or is unparked, so no wakeup is lost.
pub(crate) struct Latch {
    pending: AtomicBool,
    sleeper: Mutex<Option<Thread>>,
}

impl Latch {
    pub(crate) fn new() -> Latch {
        Latch {
            pending: AtomicBool::new(false),
            sleeper: Mutex::new(None),
        }
    }

    /// Waking side, after publishing what the waiter polls for.
    pub(crate) fn notify(&self) {
        self.pending.store(true, Ordering::SeqCst);
        if let Some(t) = lock_clean(&self.sleeper).as_ref() {
            t.unpark();
        }
    }

    /// Waiting side, at the bottom of the [`wait`] ladder: parks until
    /// notified, or for at most `slice` when one is given. Returns the
    /// nanoseconds actually spent parked (0 when a notification was
    /// already pending), timed only under tracing.
    fn park(&self, slice: Option<Duration>) -> u64 {
        *lock_clean(&self.sleeper) = Some(std::thread::current());
        let mut parked_ns = 0;
        if !self.pending.swap(false, Ordering::SeqCst) {
            let park = || match slice {
                Some(slice) => std::thread::park_timeout(slice),
                None => std::thread::park(),
            };
            if bcag_trace::enabled() {
                let t0 = std::time::Instant::now();
                park();
                parked_ns = t0.elapsed().as_nanos() as u64;
            } else {
                park();
            }
        }
        *lock_clean(&self.sleeper) = None;
        parked_ns
    }
}

/// The spin → yield → park ladder behind every blocking wait of the
/// in-process machine: a fabric receive, a pool worker waiting for the
/// next epoch, and a dispatcher waiting for its workers. Polls `ready`
/// with a spin hint for `spin` sweeps, then with a `yield_now` for
/// [`RECV_YIELD_SWEEPS`] more, then parks on `latch` between polls, for
/// at most `slice` when one is given. Returns the value `ready` yielded
/// and the nanoseconds spent parked (timed only under tracing).
pub(crate) fn wait<R>(
    spin: u32,
    latch: &Latch,
    slice: Option<Duration>,
    mut ready: impl FnMut() -> Option<R>,
) -> (R, u64) {
    let mut parked_ns = 0u64;
    let mut sweeps = 0u32;
    loop {
        if let Some(value) = ready() {
            return (value, parked_ns);
        }
        sweeps = sweeps.saturating_add(1);
        if sweeps < spin {
            std::hint::spin_loop();
        } else if sweeps < spin + RECV_YIELD_SWEEPS {
            std::thread::yield_now();
        } else {
            parked_ns += latch.park(slice);
        }
    }
}

/// The shared state of one `p`-node ring fabric.
pub(crate) struct Fabric {
    p: usize,
    /// Receive spin-phase length, from [`spin_sweeps`].
    spin: u32,
    /// Directed rings, indexed `src * p + dst`.
    rings: Vec<Ring>,
    /// One wakeup latch per consumer node.
    latches: Vec<Latch>,
}

/// One node's handle on a [`Fabric`]: point-to-point envelope exchange
/// with every peer of a `p`-node machine. Poison and barrier signalling
/// are layered on top by [`crate::pool::NodeCtx`].
pub(crate) struct Endpoint {
    m: usize,
    fabric: Arc<Fabric>,
    /// Round-robin sweep start, for fairness across sources.
    cursor: usize,
}

/// Builds the `p` connected endpoints of a fresh ring fabric, one per
/// node.
pub(crate) fn fabric(p: usize) -> Vec<Endpoint> {
    let fabric = Arc::new(Fabric {
        p,
        spin: spin_sweeps(p),
        rings: (0..p * p).map(|_| Ring::new(RING_CAP)).collect(),
        latches: (0..p).map(|_| Latch::new()).collect(),
    });
    (0..p)
        .map(|m| Endpoint {
            m,
            fabric: Arc::clone(&fabric),
            cursor: 0,
        })
        .collect()
}

impl Fabric {
    /// One sweep over node `m`'s inbound rings, starting at its fairness
    /// cursor.
    fn sweep(&self, m: usize, cursor: &mut usize) -> Option<Envelope> {
        let p = self.p;
        for i in 0..p {
            let src = (*cursor + i) % p;
            if let Some(env) = self.rings[src * p + m].try_pop() {
                *cursor = (src + 1) % p;
                return Some(env);
            }
        }
        None
    }
}

impl Endpoint {
    /// The machine size `p`.
    pub(crate) fn p(&self) -> usize {
        self.fabric.p
    }

    /// Delivers an envelope to node `dst`, spinning (and yielding every
    /// 1024 spins) while that ring is full.
    pub(crate) fn send(&mut self, dst: usize, env: Envelope) {
        let ring = &self.fabric.rings[self.m * self.fabric.p + dst];
        let mut env = env;
        let mut spins = 0u64;
        loop {
            match ring.try_push(env) {
                Ok(()) => break,
                Err(back) => {
                    env = back;
                    spins += 1;
                    std::hint::spin_loop();
                    if spins % 1024 == 0 {
                        // The consumer is far behind; stop burning the
                        // core it may be waiting for.
                        std::thread::yield_now();
                    }
                }
            }
        }
        if spins > 0 {
            bcag_trace::count("ring_full_spins", spins);
        }
        self.fabric.latches[dst].notify();
    }

    /// Best-effort non-blocking send used for teardown signalling
    /// (poison broadcast): returns `false` if the ring is full right now,
    /// rather than waiting.
    pub(crate) fn offer(&mut self, dst: usize, env: Envelope) -> bool {
        let ok = self.fabric.rings[self.m * self.fabric.p + dst]
            .try_push(env)
            .is_ok();
        if ok {
            self.fabric.latches[dst].notify();
        }
        ok
    }

    /// Blocks for the next envelope from any peer.
    pub(crate) fn recv(&mut self) -> Envelope {
        let Endpoint { m, fabric, cursor } = self;
        let (env, parked_ns) = wait(fabric.spin, &fabric.latches[*m], Some(PARK_SLICE), || {
            fabric.sweep(*m, cursor)
        });
        if parked_ns > 0 {
            bcag_trace::count("transport_park_ns", parked_ns);
            bcag_trace::record("transport_park_ns", parked_ns);
        }
        env
    }

    /// Returns a queued envelope if one is immediately available.
    pub(crate) fn try_recv(&mut self) -> Option<Envelope> {
        self.fabric.sweep(self.m, &mut self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(v: i64) -> Envelope {
        Box::new(v)
    }

    fn val(e: Envelope) -> i64 {
        *e.downcast::<i64>().expect("i64 payload")
    }

    #[test]
    fn ring_is_fifo_and_wraps() {
        let ring = Ring::new(4);
        // Several wrap-arounds worth of traffic through a 4-slot ring.
        let mut next_out = 0i64;
        for batch in 0..10i64 {
            for i in 0..3 {
                ring.try_push(env(batch * 3 + i)).ok().unwrap();
            }
            for _ in 0..3 {
                assert_eq!(val(ring.try_pop().unwrap()), next_out);
                next_out += 1;
            }
        }
        assert!(ring.try_pop().is_none());
        assert_eq!(ring.len(), 0);
    }

    #[test]
    fn full_ring_rejects_until_drained() {
        let ring = Ring::new(2);
        ring.try_push(env(1)).ok().unwrap();
        ring.try_push(env(2)).ok().unwrap();
        let back = ring.try_push(env(3)).err().expect("full");
        assert_eq!(val(back), 3);
        assert_eq!(val(ring.try_pop().unwrap()), 1);
        ring.try_push(env(3)).ok().unwrap();
        assert_eq!(val(ring.try_pop().unwrap()), 2);
        assert_eq!(val(ring.try_pop().unwrap()), 3);
    }

    #[test]
    fn spsc_stress_delivers_everything_in_order() {
        let ring = Arc::new(Ring::new(8));
        let n = 50_000i64;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut e = env(i);
                    loop {
                        match ring.try_push(e) {
                            Ok(()) => break,
                            Err(back) => {
                                e = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let mut expected = 0i64;
        while expected < n {
            if let Some(e) = ring.try_pop() {
                assert_eq!(val(e), expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(ring.try_pop().is_none());
    }

    #[test]
    fn endpoints_deliver_point_to_point() {
        let mut eps = fabric(3);
        assert_eq!(eps[1].p(), 3);
        eps[0].send(2, env(41));
        eps[1].send(2, env(1));
        let a = val(eps[2].recv());
        let b = val(eps[2].try_recv().unwrap());
        assert_eq!(a + b, 42);
        assert!(eps[2].try_recv().is_none());
        assert!(eps[0].try_recv().is_none() && eps[1].try_recv().is_none());
    }

    #[test]
    fn endpoints_deliver_across_threads_with_parking() {
        let mut eps = fabric(2);
        let consumer = eps.remove(1);
        let mut producer = eps.remove(0);
        let handle = std::thread::spawn(move || {
            let mut consumer = consumer;
            // Outlast the consumer's spin phase so the park path runs.
            (0..3).map(|_| val(consumer.recv())).collect::<Vec<_>>()
        });
        std::thread::sleep(Duration::from_millis(5));
        for i in 10..13 {
            producer.send(1, env(i));
        }
        assert_eq!(handle.join().unwrap(), vec![10, 11, 12]);
    }
}
