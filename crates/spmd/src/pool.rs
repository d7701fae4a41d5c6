//! Resident SPMD worker pool: persistent node threads, a reusable
//! ring fabric, and per-node buffer arenas.
//!
//! The simulated machine historically paid a full `thread::scope`
//! spawn/join of `p` OS threads on every [`crate::Machine::run`] and
//! statement epoch. For the small-`k`,
//! many-statement workloads whose *planning* cost the schedule cache
//! already removed, that per-statement *launch* cost dominates. The pool
//! makes the runtime behave like the paper's iPSC/860: nodes boot once,
//! statements stream through them, and every processor runs the node
//! program — none sits idle to dispatch.
//!
//! Architecture:
//!
//! - **Node 0 is the caller** — the thread that dispatches an epoch runs
//!   node 0's body itself. Node 0's [`NodeCtx`] (ring endpoint and
//!   arena) lives in the pool behind the epoch gate, so holding the gate
//!   means owning node 0's context. While it runs node 0, the caller's
//!   trace recording is lent to a `node-0` lane
//!   ([`bcag_trace::lane_as`]); the dispatch's own spans stay on the
//!   caller's lane.
//! - **Workers** — `p − 1` detached threads named `node-<m>` for nodes
//!   `1..p`, created once per (machine size, transport) by [`global`]
//!   (or eagerly by [`warm`]) and resident until the pool drops. The
//!   thread name doubles as the trace-lane label, so counters recorded
//!   on a worker aggregate on one persistent `node-<m>` lane. When the
//!   machine has exactly one node per CPU the process may use, worker
//!   `m` is pinned to the `m`-th of those CPUs; the caller is never
//!   pinned.
//! - **Fabric** — each node owns an endpoint on the pool's lock-free
//!   SPSC ring fabric ([`crate::transport::ring`]); node bodies exchange
//!   [`Envelope`]s (type-erased boxed payloads, or wire-encoded bytes
//!   under [`TransportKind::Proc`]) without creating channels per call.
//! - **Arena** — each node owns a [`BufferArena`] recycling pack/unpack
//!   `Vec` allocations across statements; steady-state batched execution
//!   allocates nothing once buffers reach their high-water mark.
//! - **Dispatch / epoch slot** — [`Pool::dispatch`] publishes a borrowed
//!   `&dyn Fn(usize, &mut NodeCtx)` on the pool's one epoch slot (a
//!   generation counter, the body pointer, a count of workers still
//!   running, the epoch's panic), runs node 0, and waits until the count
//!   reaches zero (one *epoch*). Workers wait for the next generation,
//!   and the caller for the count, on the ring's spin → yield → park
//!   ladder ([`ring::wait`]), so a worker still spinning or yielding
//!   picks up the next statement without a futex wake-up, and an idle
//!   worker parks with no timeout. A steady-state dispatch allocates
//!   nothing. The wait is also an unwind guard: the borrow cannot
//!   escape the dispatching frame while any worker might still use it.
//! - **Poison protocol** — a panicking node (the caller's node 0
//!   included) broadcasts a [`Poison`] envelope to its peers before it
//!   counts itself out, so nodes blocked in [`NodeCtx::recv`] fail fast
//!   with a clear message instead of hanging a counted receive loop.
//!   After the epoch completes the dispatcher drains every inbox and
//!   re-raises the original panic, not a peer's poison panic; the pool
//!   itself stays usable.
//!
//! [`launch_with`] is the single entry point, and it routes through the
//! resident pool. Two cases cannot: a launch from inside a node body
//! (the busy pool would deadlock on its own gate) runs on a private
//! per-call `thread::scope` with a fresh fabric and the same poison
//! protocol, and inside a `bcag spmd` node process bodies run inline.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bcag_core::error::Result;
use bcag_core::method::Method;
use bcag_core::params::Problem;
use bcag_core::pattern::AccessPattern;

use crate::transport::ring::{self, Endpoint, Latch};
use crate::transport::{self, BarrierArrive, BarrierRelease, Poison, TransportKind};

pub use crate::transport::Envelope;

/// How SPMD node bodies are launched: always on the resident worker
/// pool. The type survives because benchmark reports still record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Dispatch to the resident worker pool: zero thread spawns and
    /// recycled buffers on the steady-state path.
    Pooled,
}

impl LaunchMode {
    /// Stable lowercase name, used in bench labels.
    pub fn name(&self) -> &'static str {
        "pooled"
    }
}

/// The process's launch mode (always [`LaunchMode::Pooled`]).
pub fn default_launch() -> LaunchMode {
    LaunchMode::Pooled
}

/// Arena shelves hold at most this many idle buffers per payload type;
/// beyond the high-water working set, extra buffers are dropped rather
/// than hoarded.
const ARENA_SHELF_CAP: usize = 64;

/// One idle buffer on an arena shelf, with its capacity in elements
/// recorded so fitting never downcasts.
struct Shelved {
    cap: usize,
    buf: Envelope,
}

/// Per-node recycling store for pack/unpack buffers, keyed by payload
/// type. `take` pops an idle buffer (counting a `pool_buffer_reuses`
/// trace event) or allocates a fresh one; `take_fit` picks the shelved
/// buffer that best fits a known size; `put` returns a buffer to its
/// shelf. Buffers keep their capacity across statements, so steady-state
/// loops stop allocating once every shelf reaches its high-water mark.
#[derive(Default)]
pub struct BufferArena {
    shelves: HashMap<std::any::TypeId, Vec<Shelved>>,
    /// Bytes of capacity currently shelved, over all payload types.
    bytes: usize,
}

impl BufferArena {
    /// Takes a cleared `Vec<T>` from the shelf, or allocates one.
    pub fn take<T: Send + 'static>(&mut self) -> Vec<T> {
        self.take_where::<T>(|shelf| shelf.len().checked_sub(1))
    }

    /// Takes the best-fitting shelved `Vec<T>` for `want` elements: the
    /// smallest whose capacity covers `want`, else the largest (which
    /// then grows least), else a fresh allocation; among equal
    /// capacities, the most recently shelved, which is likeliest still
    /// in cache. Staging snapshots, send payloads and received payloads
    /// share a shelf and differ in size by orders of magnitude; fitting
    /// keeps a small request from regrowing a small buffer while a large
    /// one idles, and a large request from stranding the small ones.
    pub(crate) fn take_fit<T: Send + 'static>(&mut self, want: usize) -> Vec<T> {
        self.take_where::<T>(|shelf| {
            let covering = shelf
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, s)| s.cap >= want)
                .min_by_key(|(_, s)| s.cap);
            covering
                .or_else(|| shelf.iter().enumerate().max_by_key(|(_, s)| s.cap))
                .map(|(i, _)| i)
        })
    }

    /// Removes the shelf entry `pick` selects, cleared, or allocates. The
    /// shelf stays in the order buffers were put, newest last.
    fn take_where<T: Send + 'static>(
        &mut self,
        pick: impl FnOnce(&[Shelved]) -> Option<usize>,
    ) -> Vec<T> {
        if let Some(shelf) = self.shelves.get_mut(&std::any::TypeId::of::<Vec<T>>()) {
            if let Some(i) = pick(shelf) {
                let s = shelf.remove(i);
                self.bytes -= s.cap * std::mem::size_of::<T>();
                let mut buf = *s.buf.downcast::<Vec<T>>().expect("shelf keyed by TypeId");
                buf.clear();
                bcag_trace::count("pool_buffer_reuses", 1);
                return buf;
            }
        }
        Vec::new()
    }

    /// Shelves a buffer for reuse. Zero-capacity buffers and overflow
    /// beyond [`ARENA_SHELF_CAP`] are dropped.
    pub fn put<T: Send + 'static>(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let shelf = self
            .shelves
            .entry(std::any::TypeId::of::<Vec<T>>())
            .or_default();
        if shelf.len() < ARENA_SHELF_CAP {
            let cap = buf.capacity();
            self.bytes += cap * std::mem::size_of::<T>();
            shelf.push(Shelved {
                cap,
                buf: Box::new(buf),
            });
        }
    }

    /// Bytes of buffer capacity idling on the shelves — the
    /// `pool_arena_bytes` gauge.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Per-node execution context handed to every launched body: the node's
/// fabric endpoint and its buffer arena.
pub struct NodeCtx {
    m: usize,
    kind: TransportKind,
    link: Endpoint,
    arena: BufferArena,
    /// Set when [`NodeCtx::recv`] met a peer's poison, so the panic that
    /// follows is known to be a consequence, not the original failure.
    poisoned: bool,
}

impl NodeCtx {
    fn new(m: usize, kind: TransportKind, link: Endpoint) -> NodeCtx {
        NodeCtx {
            m,
            kind,
            link,
            arena: BufferArena::default(),
            poisoned: false,
        }
    }

    /// This node's index in `0..p`.
    pub fn node(&self) -> usize {
        self.m
    }

    /// The machine size.
    pub fn p(&self) -> usize {
        self.link.p()
    }

    /// Which payload form this context's envelopes carry.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// Whether executors should ship the serialized wire format instead
    /// of boxed in-memory buffers on this fabric.
    pub fn serializes(&self) -> bool {
        self.kind.serializes()
    }

    /// Sends an envelope to node `dst`.
    pub fn send(&mut self, dst: usize, env: Envelope) {
        self.link.send(dst, env);
    }

    /// Blocks for the next envelope. Panics with a clear message if a
    /// peer's poison arrives instead — a node job panicked mid-exchange
    /// and this node's expected data will never come.
    pub fn recv(&mut self) -> Envelope {
        let env = self.link.recv();
        if env.is::<Poison>() {
            self.poisoned = true;
            panic!(
                "spmd node {}: a peer node job panicked mid-exchange",
                self.m
            );
        }
        env
    }

    /// Full barrier over all nodes of the machine, built on the fabric's
    /// envelope exchange: each node reports to node 0, node 0 releases
    /// everyone. Only valid at quiescent points — no data envelopes may
    /// be in flight.
    pub fn barrier(&mut self) {
        let p = self.p();
        if self.m == 0 {
            for _ in 1..p {
                let env = self.recv();
                assert!(env.is::<BarrierArrive>(), "barrier crossed in-flight data");
            }
            for dst in 1..p {
                self.send(dst, Box::new(BarrierRelease));
            }
        } else {
            self.send(0, Box::new(BarrierArrive));
            let env = self.recv();
            assert!(env.is::<BarrierRelease>(), "barrier crossed in-flight data");
        }
    }

    /// Takes a recycled buffer from this node's arena.
    pub fn take_buf<T: Send + 'static>(&mut self) -> Vec<T> {
        self.arena.take()
    }

    /// Returns a buffer to this node's arena for reuse.
    pub fn put_buf<T: Send + 'static>(&mut self, buf: Vec<T>) {
        self.arena.put(buf)
    }

    /// This node's buffer arena (phase helpers take it directly).
    pub(crate) fn arena(&mut self) -> &mut BufferArena {
        &mut self.arena
    }

    /// Whether anything is queued on the fabric (post-panic hygiene
    /// checks in tests).
    #[cfg(test)]
    pub(crate) fn fabric_is_clean(&mut self) -> bool {
        match self.link.try_recv() {
            None => true,
            Some(_) => false,
        }
    }

    /// Discards everything queued on the inbox (post-panic cleanup).
    fn drain_inbox(&mut self) {
        while self.link.try_recv().is_some() {}
    }

    /// Runs this node's share of an epoch. A panicking body poisons the
    /// node's peers and comes back as the caught panic.
    fn run_caught(&mut self, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) -> Option<Caught> {
        let outcome = catch_unwind(AssertUnwindSafe(|| body(self.m, self)));
        let from_poison = std::mem::take(&mut self.poisoned);
        outcome.err().map(|payload| {
            self.poison_peers();
            Caught {
                payload,
                from_poison,
            }
        })
    }

    /// Broadcasts poison to every other node. Best-effort with a bounded
    /// retry: a peer blocked in `recv` keeps draining its rings, so a
    /// full ring clears quickly, but a peer whose body already returned
    /// no longer drains, and its full ring must not block the panicking
    /// node's acknowledgement forever.
    fn poison_peers(&mut self) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
        for dst in 0..self.p() {
            if dst == self.m {
                continue;
            }
            let mut env: Envelope = Box::new(Poison);
            loop {
                if self.link.offer(dst, env) {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    break;
                }
                std::thread::yield_now();
                env = Box::new(Poison);
            }
        }
    }
}

/// A resident pool of `p` nodes: node 0 runs on whichever thread
/// dispatches, nodes `1..p` on resident workers. Obtain one via
/// [`global`]; all launches for a given (machine size, transport) share
/// it.
pub struct Pool {
    p: usize,
    kind: TransportKind,
    /// The epoch slot shared with the workers.
    slot: Arc<EpochSlot>,
    /// Node 0's context behind the epoch gate, which serializes
    /// dispatches: interleaving two epochs on shared workers could
    /// deadlock nodes that exchange data, and holding the gate means
    /// owning node 0.
    gate: Mutex<NodeCtx>,
    /// [`POOL_TICK`] stamp of the last registry hit or dispatch — the
    /// recency signal admission control's LRU eviction scans.
    last_used: AtomicU64,
}

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while the current thread runs a node body of a pool epoch: on a
/// worker, and on a dispatching thread while it runs node 0. A nested
/// launch from inside a node body falls back to a private thread scope —
/// dispatching to the (busy) pool from inside its own epoch would
/// deadlock on the gate.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Borrowed node body, erased to a raw pointer so the pool's `'static`
/// epoch slot can carry it. Soundness: the dispatching frame blocks in
/// [`EpochBarrier`] until every worker has counted itself out of the
/// epoch, so the pointee strictly outlives every dereference.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn(usize, &mut NodeCtx) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and the epoch barrier keeps it alive while any worker runs it.
#[allow(unsafe_code)]
unsafe impl Send for BodyPtr {}

/// A node body's panic, and whether it was the node failing on a peer's
/// poison rather than failing first.
struct Caught {
    payload: Box<dyn Any + Send>,
    from_poison: bool,
}

/// The panic an epoch re-raises: the first original one, or — only when
/// every panicking node failed on a peer's poison — the first of those.
#[derive(Default)]
struct FirstPanic(Option<Caught>);

impl FirstPanic {
    fn offer(&mut self, caught: Caught) {
        let replaces = match &self.0 {
            None => true,
            Some(held) => held.from_poison && !caught.from_poison,
        };
        if replaces {
            self.0 = Some(caught);
        }
    }

    fn take(&mut self) -> Option<Box<dyn Any + Send>> {
        self.0.take().map(|c| c.payload)
    }
}

/// The one epoch slot of a pool, reused for the pool's life. The
/// dispatcher publishes an epoch by storing the body and bumping
/// `generation`; each worker runs every generation once and counts
/// itself out of `remaining`.
struct EpochSlot {
    /// Epochs published so far; a worker waits for it to move past the
    /// last one it ran.
    generation: AtomicU64,
    /// The running epoch's body; stored before `generation` moves.
    body: Mutex<Option<BodyPtr>>,
    /// Workers still running the current epoch.
    remaining: AtomicUsize,
    /// The panic the current epoch will re-raise, if any.
    panic: Mutex<FirstPanic>,
    /// Set when the pool drops: workers exit instead of waiting.
    shutdown: AtomicBool,
    /// Spin-phase length of every wait on this slot
    /// ([`ring::spin_sweeps`]).
    spin: u32,
    /// One wake-up latch per worker, node `m` at `m − 1`.
    wake: Vec<Latch>,
    /// The dispatcher's latch, notified by the worker that takes
    /// `remaining` to zero.
    done: Latch,
}

impl EpochSlot {
    /// Worker `m`'s resident loop: wait for an epoch, run it, count out,
    /// until the pool drops.
    fn serve(&self, mut ctx: NodeCtx) {
        IN_WORKER.with(|f| f.set(true));
        let mut ran = 0;
        while let Some(gen) = self.next_epoch(ctx.m, ran) {
            ran = gen;
            let body = lock_clean(&self.body).expect("a published epoch has a body");
            // SAFETY: the dispatcher's `EpochBarrier` blocks until this
            // worker counts itself out below, so the pointee outlives
            // this call.
            #[allow(unsafe_code)]
            let caught = ctx.run_caught(unsafe { &*body.0 });
            if let Some(caught) = caught {
                lock_clean(&self.panic).offer(caught);
            }
            // Release: the body's effects and any recorded panic reach
            // the dispatcher's Acquire load of a zero count.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.done.notify();
            }
        }
    }

    /// Waits on worker `m`'s latch for an epoch after generation `ran`;
    /// `None` once the pool has dropped.
    fn next_epoch(&self, m: usize, ran: u64) -> Option<u64> {
        let (next, _) = ring::wait(self.spin, &self.wake[m - 1], None, || {
            if self.shutdown.load(Ordering::Acquire) {
                return Some(None);
            }
            let gen = self.generation.load(Ordering::Acquire);
            (gen != ran).then_some(Some(gen))
        });
        next
    }
}

/// One published epoch. Dropping it blocks until every worker has
/// counted itself out, so it doubles as the unwind guard: a borrowed
/// body can never dangle while a worker might call it.
struct EpochBarrier<'a> {
    slot: &'a EpochSlot,
}

impl<'a> EpochBarrier<'a> {
    /// Publishes `body` to every worker.
    fn publish(slot: &'a EpochSlot, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) -> Self {
        if !slot.wake.is_empty() {
            // SAFETY (lifetime erasure): a plain `as` cast cannot widen
            // the trait-object lifetime to the pointer's `'static`
            // default, so the fat pointer is transmuted instead. Workers
            // dereference it only before counting themselves out, and
            // this barrier's drop waits for that.
            #[allow(unsafe_code)]
            let ptr = BodyPtr(unsafe {
                std::mem::transmute::<
                    &(dyn Fn(usize, &mut NodeCtx) + Sync),
                    *const (dyn Fn(usize, &mut NodeCtx) + Sync),
                >(body)
            });
            *lock_clean(&slot.body) = Some(ptr);
            // The Release bump publishes the count (and the body) to the
            // workers' Acquire loads of `generation`.
            slot.remaining.store(slot.wake.len(), Ordering::Relaxed);
            slot.generation.fetch_add(1, Ordering::Release);
            for latch in &slot.wake {
                latch.notify();
            }
        }
        EpochBarrier { slot }
    }
}

impl Drop for EpochBarrier<'_> {
    fn drop(&mut self) {
        let slot = self.slot;
        ring::wait(slot.spin, &slot.done, None, || {
            (slot.remaining.load(Ordering::Acquire) == 0).then_some(())
        });
    }
}

/// The CPUs the nodes of a `p`-node pool map to: with exactly one node
/// per CPU this process may use (and more than one node), node `m` maps
/// to the `m`-th such CPU and worker `m ≥ 1` is pinned there; node 0
/// runs on the dispatching thread, which is never pinned. Any other size
/// floats. Left to the OS, the scheduler often queued two nodes of an
/// epoch on one CPU while the other idled: on a 2-vCPU host both
/// workers of a `p = 2` epoch started on one CPU in 26–57% of epochs, a
/// share that changed from run to run, and the epoch's latency with it.
/// Pinning only a subset of the CPUs, or several nodes per CPU, would
/// instead pile load where the OS cannot move it.
fn worker_cpus(p: usize) -> Option<Vec<usize>> {
    let cpus = affinity::allowed();
    (p > 1 && cpus.len() == p).then_some(cpus)
}

/// Thread-to-CPU affinity through the C library (best effort: where it
/// is unavailable or refused, workers float).
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending; empty when the
    /// mask cannot be read.
    pub(super) fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable mask of exactly the size passed;
        // pid 0 names the calling thread.
        #[allow(unsafe_code)]
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&c| (set[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpu`; returns whether it took.
    pub(super) fn pin(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        if cpu >= set.len() * 64 {
            return false;
        }
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable mask of exactly the size passed;
        // pid 0 names the calling thread.
        #[allow(unsafe_code)]
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn pin(_cpu: usize) -> bool {
        false
    }
}

impl Pool {
    /// Boots the `p − 1` resident workers of a `p`-node pool on a fresh
    /// ring fabric carrying the given payload form; node 0's context
    /// stays with the pool for whichever thread dispatches.
    fn new(p: usize, kind: TransportKind) -> Pool {
        assert!(p >= 1, "machine needs at least one node");
        let mut links = ring::fabric(p).into_iter();
        let node0 = NodeCtx::new(0, kind, links.next().expect("node 0's endpoint"));
        let slot = Arc::new(EpochSlot {
            generation: AtomicU64::new(0),
            body: Mutex::new(None),
            remaining: AtomicUsize::new(0),
            panic: Mutex::new(FirstPanic::default()),
            shutdown: AtomicBool::new(false),
            spin: ring::spin_sweeps(p),
            wake: (1..p).map(|_| Latch::new()).collect(),
            done: Latch::new(),
        });
        let cpus = worker_cpus(p);
        for (m, link) in (1..).zip(links) {
            let ctx = NodeCtx::new(m, kind, link);
            let cpu = cpus.as_ref().map(|cpus| cpus[m]);
            let slot = Arc::clone(&slot);
            std::thread::Builder::new()
                // The thread name is the default trace-lane label, so
                // pooled counters land on `node-<m>` lanes.
                .name(format!("node-{m}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        affinity::pin(cpu);
                    }
                    slot.serve(ctx);
                })
                .expect("spawn pool worker");
        }
        Pool {
            p,
            kind,
            slot,
            gate: Mutex::new(node0),
            last_used: AtomicU64::new(0),
        }
    }

    /// Stamps this pool as the most recently used resident pool.
    fn touch(&self) {
        let tick = POOL_TICK.fetch_add(1, Ordering::Relaxed) + 1;
        self.last_used.store(tick, Ordering::Relaxed);
    }

    /// Whether no dispatch currently holds the epoch gate. Admission
    /// control only evicts idle pools; a busy pool stays resident no
    /// matter how stale its stamp is.
    fn is_idle(&self) -> bool {
        // `Ok` (briefly acquired, dropped immediately) and `Poisoned`
        // both mean nobody is dispatching right now.
        !matches!(
            self.gate.try_lock(),
            Err(std::sync::TryLockError::WouldBlock)
        )
    }

    /// The machine size this pool serves.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The payload form this pool's node contexts exchange.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// Runs `body(m, ctx)` once on every node — node 0 on the calling
    /// thread — and blocks until all have finished (one epoch). If any
    /// node panicked, drains the fabric and re-raises the original
    /// panic; the pool remains usable.
    pub fn dispatch(&self, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static INFLIGHT: AtomicU64 = AtomicU64::new(0);
        /// Decrements the in-flight depth and samples the gauge on the way
        /// out, so the track returns to its resting level.
        struct DepthGuard;
        impl Drop for DepthGuard {
            fn drop(&mut self) {
                let depth = INFLIGHT.fetch_sub(1, Ordering::Relaxed) - 1;
                bcag_trace::gauge("pool_dispatch_inflight", depth);
            }
        }
        let _sp = bcag_trace::span("pool.dispatch");
        let _t = bcag_trace::timed_span("pool_dispatch_ns");
        // Sampled before the gate: concurrent drivers queued on the same
        // pool show up as depth > 1 in the timeline.
        let _depth = bcag_trace::enabled().then(|| {
            let depth = INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
            bcag_trace::gauge("pool_dispatch_inflight", depth);
            DepthGuard
        });
        self.touch();
        let mut node0 = lock_clean(&self.gate);
        if let Some(payload) = self.run_epoch(&mut node0, body) {
            // Nodes stopped mid-protocol: stray data and poison envelopes
            // may still sit in inboxes. Scrub before releasing the gate
            // so the next dispatch starts clean.
            let _ = self.run_epoch(&mut node0, &|_, ctx| ctx.drain_inbox());
            drop(node0);
            resume_unwind(payload);
        }
    }

    /// Publishes one epoch to the workers, runs node 0 on the calling
    /// thread, and waits out the epoch, returning the panic to re-raise
    /// if any node panicked.
    fn run_epoch(
        &self,
        node0: &mut NodeCtx,
        body: &(dyn Fn(usize, &mut NodeCtx) + Sync),
    ) -> Option<Box<dyn Any + Send>> {
        let epoch = EpochBarrier::publish(&self.slot, body);
        let caught = {
            let _lane = bcag_trace::lane_as("node-0");
            let was_in_worker = IN_WORKER.with(|f| f.replace(true));
            let caught = node0.run_caught(body);
            IN_WORKER.with(|f| f.set(was_in_worker));
            caught
        };
        drop(epoch);
        let mut panic = lock_clean(&self.slot.panic);
        if let Some(caught) = caught {
            panic.offer(caught);
        }
        panic.take()
    }
}

impl Drop for Pool {
    /// Ends the workers: they see the shutdown flag at their next wake.
    fn drop(&mut self) {
        self.slot.shutdown.store(true, Ordering::Release);
        for latch in &self.slot.wake {
            latch.notify();
        }
    }
}

/// Global recency clock for pool admission control: every registry hit
/// and dispatch takes a tick and stamps it on the pool it used.
static POOL_TICK: AtomicU64 = AtomicU64::new(0);

/// Resolves the resident-pool cap from `BCAG_MAX_POOLS`. An explicit
/// positive integer is respected verbatim; unset or unparseable falls
/// back to the host's core count (floor 2, so single-core CI machines
/// can still keep a pool per transport without churn).
fn parse_max_pools(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2),
    }
}

/// The process-wide resident-pool cap (see [`parse_max_pools`]), read
/// once from the environment.
fn max_pools() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| parse_max_pools(std::env::var("BCAG_MAX_POOLS").ok().as_deref()))
}

/// Counts pools currently registered across all shards.
fn resident_pools() -> usize {
    registry().iter().map(|shard| read_clean(shard).len()).sum()
}

/// Admission control for pool boot: while at least `cap` pools are
/// resident, evicts the least-recently-used *idle* pool so the caller's
/// boot doesn't grow the fleet past the cap. Pools matching the caller's
/// own `(keep_p, keep_kind)` key are never victims — a racing booter of
/// the same key must find the freshly booted pool, not evict it.
///
/// Best-effort by design: if every resident pool is mid-dispatch the new
/// pool is admitted over the cap rather than blocking the caller. The
/// registry drops only its own `Arc`; in-flight holders keep an evicted
/// pool (and its worker threads) alive until their dispatches finish,
/// after which the workers exit when the last `Arc` drops.
fn enforce_pool_cap(cap: usize, keep_p: usize, keep_kind: TransportKind) {
    while resident_pools() >= cap {
        // Scan for the stalest idle pool. Read locks only, one shard at
        // a time, nothing held across the eviction below — no ordering
        // hazard against concurrent lookups or boots.
        let mut victim: Option<(usize, u64, Arc<Pool>)> = None;
        for (i, shard) in registry().iter().enumerate() {
            for pool in read_clean(shard).iter() {
                if pool.p == keep_p && pool.kind == keep_kind {
                    continue;
                }
                if !pool.is_idle() {
                    continue;
                }
                let stamp = pool.last_used.load(Ordering::Relaxed);
                if victim.as_ref().map_or(true, |(_, s, _)| stamp < *s) {
                    victim = Some((i, stamp, Arc::clone(pool)));
                }
            }
        }
        let Some((i, _, victim)) = victim else {
            // Every pool is busy (or matches the caller's key): admit
            // over the cap rather than stall the boot.
            return;
        };
        write_clean(&registry()[i]).retain(|q| !Arc::ptr_eq(q, &victim));
        bcag_trace::count("pool_evictions", 1);
    }
}

/// Lock domains of the pool registry. Every `Machine::new` and fused
/// epoch resolves its pool through the registry, so
/// like the schedule cache it must not funnel concurrent drivers through
/// one exclusive lock; 16 shards is far past the handful of
/// (machine size, transport) pairs a process ever runs.
const REGISTRY_SHARDS: usize = 16;

/// Registry of resident pools, one per (machine size, transport) ever
/// requested: a sharded read-mostly map. The steady-state path (pool
/// already booted) takes one shared lock on the key's shard; the
/// write lock doubles as single-flight arbitration for the one-time
/// worker boot.
fn registry() -> &'static [RwLock<Vec<Arc<Pool>>>; REGISTRY_SHARDS] {
    static REGISTRY: OnceLock<[RwLock<Vec<Arc<Pool>>>; REGISTRY_SHARDS]> = OnceLock::new();
    REGISTRY.get_or_init(|| std::array::from_fn(|_| RwLock::new(Vec::new())))
}

/// The registry shard for a (machine size, transport) key: high FxHash
/// bits, like the schedule cache's shard selection.
fn registry_shard(p: usize, kind: TransportKind) -> &'static RwLock<Vec<Arc<Pool>>> {
    let hash = bcag_harness::hash::hash_one(&(p, kind));
    &registry()[(hash >> 32) as usize & (REGISTRY_SHARDS - 1)]
}

/// The resident pool for machine size `p` carrying boxed envelopes
/// ([`TransportKind::Shm`]), booting it on first use.
pub fn global(p: i64) -> Arc<Pool> {
    global_with(p, TransportKind::Shm)
}

/// The resident pool for machine size `p` on an explicit transport.
///
/// Boots are admission-controlled: at most `BCAG_MAX_POOLS` pools
/// (default: host core count) stay registered, with idle
/// least-recently-used pools evicted to make room — a long-lived driver
/// cycling through many machine sizes doesn't accumulate `Σpᵢ` parked
/// worker threads.
pub fn global_with(p: i64, kind: TransportKind) -> Arc<Pool> {
    assert!(p >= 1, "machine needs at least one node");
    let p = p as usize;
    let shard = registry_shard(p, kind);
    {
        let pools = read_clean(shard);
        if let Some(pool) = pools.iter().find(|pool| pool.p == p && pool.kind == kind) {
            pool.touch();
            return Arc::clone(pool);
        }
    }
    // Make room before booting: evict idle LRU pools (never this key's)
    // while the fleet is at the cap. No locks held here, so the scan's
    // shard reads and the eviction's shard write cannot deadlock against
    // the write lock below.
    enforce_pool_cap(max_pools(), p, kind);
    let mut pools = write_clean(shard);
    // Double-check under the write lock: a racing driver may have booted
    // this pool between our read probe and here. The write lock makes
    // the boot single-flight — `p` worker threads spawn exactly once.
    if let Some(pool) = pools.iter().find(|pool| pool.p == p && pool.kind == kind) {
        pool.touch();
        return Arc::clone(pool);
    }
    let pool = Arc::new(Pool::new(p, kind));
    pool.touch();
    pools.push(Arc::clone(&pool));
    drop(pools);
    if bcag_trace::enabled() {
        bcag_trace::gauge("resident_pools", resident_pools() as u64);
    }
    pool
}

/// Eagerly boots the pool for machine size `p`, so the first statement
/// of a script doesn't pay the one-time worker spawn. No-op inside an
/// `spmd` node process, where node bodies run inline (each process *is*
/// one node).
pub fn warm(p: i64) {
    if transport::proc::active().is_some() {
        return;
    }
    let _ = global(p);
}

/// Runs `body(m, ctx)` on every node of a `p`-node machine and blocks
/// until all finish, on the resident pool for `(p, kind)`.
///
/// A launch from inside a node body (on a worker, or on a caller
/// running node 0) cannot dispatch to the (busy) pool, so it spawns a
/// private `thread::scope` with a fresh fabric and arenas instead. Inside an `spmd` node process (multi-process session
/// installed), the process *is* one node: bodies run inline on the
/// calling thread for every node index, against a loopback fabric.
/// Node-to-node data never reaches this path there — the statement
/// entry points detect the session first and run the fused program's
/// replicated form over the serialized wire — so inline bodies are
/// compute-only and every node's local-memory image stays consistent
/// within each process.
pub fn launch_with<F>(p: i64, kind: TransportKind, body: F)
where
    F: Fn(usize, &mut NodeCtx) + Sync,
{
    assert!(p >= 1, "machine needs at least one node");
    if transport::proc::active().is_some() {
        return launch_inline(p as usize, &body);
    }
    if in_worker() {
        return launch_scoped(p as usize, kind, &body);
    }
    global_with(p, kind).dispatch(&body)
}

/// The nested-launch fallback: fresh threads, fresh fabric, fresh
/// arenas, one `thread::scope` per call.
fn launch_scoped(p: usize, kind: TransportKind, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
    let mut ctxs: Vec<NodeCtx> = ring::fabric(p)
        .into_iter()
        .enumerate()
        .map(|(m, link)| NodeCtx::new(m, kind, link))
        .collect();
    // Same poison protocol as the pooled epoch: a panicking body must
    // release peers blocked in `recv` instead of deadlocking the scope
    // join, and the original panic is re-raised after everyone returns.
    let first_panic: Mutex<FirstPanic> = Mutex::new(FirstPanic::default());
    std::thread::scope(|scope| {
        for ctx in ctxs.iter_mut() {
            let first_panic = &first_panic;
            scope.spawn(move || {
                let _lane = bcag_trace::enabled()
                    .then(|| bcag_trace::set_lane_label(&format!("node-{}", ctx.m)));
                if let Some(caught) = ctx.run_caught(body) {
                    lock_clean(first_panic).offer(caught);
                }
            });
        }
    });
    if let Some(payload) = into_clean(first_panic).take() {
        resume_unwind(payload);
    }
}

/// The multi-process session path: runs every node body sequentially on
/// the calling thread (this process's trace lane is its node's lane).
/// Each body gets a fresh single-node loopback context; fabric traffic
/// would deadlock by construction, which is exactly right — compute
/// bodies must not communicate here.
fn launch_inline(p: usize, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
    for m in 0..p {
        let link = ring::fabric(1).pop().expect("one endpoint");
        let mut ctx = NodeCtx::new(m, TransportKind::Shm, link);
        body(m, &mut ctx);
    }
}

/// Builds the access patterns of all `p` processors with per-processor
/// construction fanned out over the SPMD workers (pool-parallel
/// counterpart of `bcag_core::method::build` in a loop).
pub fn build_all(problem: &Problem, method: Method) -> Result<Vec<AccessPattern>> {
    let _sp = bcag_trace::span("pool.build_all");
    let slots: Vec<Mutex<Option<Result<AccessPattern>>>> =
        (0..problem.p()).map(|_| Mutex::new(None)).collect();
    launch_with(problem.p(), TransportKind::Shm, |m, _ctx| {
        let result = bcag_core::method::build(problem, m as i64, method);
        *lock_clean(&slots[m]) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| into_clean(slot).expect("node completed"))
        .collect()
}

/// Locks a mutex, ignoring poisoning: node bodies are panic-isolated by
/// the epoch barrier, so a poisoned flag carries no extra information.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unwraps a mutex into its value, ignoring poisoning (see
/// [`lock_clean`]).
pub(crate) fn into_clean<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Shared-locks an `RwLock`, ignoring poisoning (see [`lock_clean`]).
pub(crate) fn read_clean<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, ignoring poisoning (see [`lock_clean`]).
pub(crate) fn write_clean<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_node_per_cpu_pins_every_worker_to_its_own_cpu() {
        let cpus = affinity::allowed();
        assert!(!affinity::pin(usize::MAX), "an impossible CPU is refused");
        assert_eq!(worker_cpus(1), None, "a single node floats");
        assert_eq!(worker_cpus(cpus.len() + 1), None, "shared CPUs float");
        if cpus.len() < 2 || cpus.len() > 64 {
            return;
        }
        assert_eq!(worker_cpus(cpus.len()).as_deref(), Some(&cpus[..]));
        let pool = Pool::new(cpus.len(), TransportKind::Shm);
        let seen: Vec<Mutex<Vec<usize>>> = cpus.iter().map(|_| Mutex::new(Vec::new())).collect();
        pool.dispatch(&|m, _ctx| *lock_clean(&seen[m]) = affinity::allowed());
        // Node 0 is the caller, which the pool never pins.
        assert_eq!(*lock_clean(&seen[0]), cpus, "node 0");
        for (m, &cpu) in cpus.iter().enumerate().skip(1) {
            assert_eq!(*lock_clean(&seen[m]), vec![cpu], "node {m}");
        }
    }

    #[test]
    fn node_0_runs_on_the_dispatching_thread() {
        let pool = Pool::new(4, TransportKind::Shm);
        assert_eq!(Arc::strong_count(&pool.slot), 4, "p - 1 workers");
        let caller = std::thread::current().id();
        type Seen = Option<(std::thread::ThreadId, Option<String>)>;
        let seen: Vec<Mutex<Seen>> = (0..4).map(|_| Mutex::new(None)).collect();
        for _ in 0..3 {
            pool.dispatch(&|m, _ctx| {
                let me = std::thread::current();
                *lock_clean(&seen[m]) = Some((me.id(), me.name().map(str::to_string)));
            });
            let ids: Vec<_> = seen
                .iter()
                .map(|s| lock_clean(s).clone().unwrap())
                .collect();
            assert_eq!(ids[0].0, caller, "node 0 runs on the caller");
            for (m, (id, name)) in ids.iter().enumerate().skip(1) {
                assert_ne!(*id, caller, "node {m}");
                assert_eq!(name.as_deref(), Some(format!("node-{m}").as_str()));
            }
        }
        assert!(!in_worker(), "the caller's mark is restored");
        let single = Pool::new(1, TransportKind::Shm);
        assert_eq!(
            Arc::strong_count(&single.slot),
            1,
            "a 1-node pool spawns no worker"
        );
        let ran = Mutex::new(None);
        single.dispatch(&|m, ctx| *lock_clean(&ran) = Some((m, ctx.p(), in_worker())));
        assert_eq!(into_clean(ran), Some((0, 1, true)));
    }

    /// The message a caught panic payload carries.
    fn message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Every node's fabric is clean on the next dispatch.
    fn assert_fabric_clean(pool: &Pool) {
        let clean: Vec<Mutex<bool>> = (0..pool.p()).map(|_| Mutex::new(false)).collect();
        pool.dispatch(&|m, ctx| *lock_clean(&clean[m]) = ctx.fabric_is_clean());
        for (m, slot) in clean.iter().enumerate() {
            assert!(*lock_clean(slot), "node {m} inbox drained after panic");
        }
    }

    #[test]
    fn a_panic_on_the_caller_poisons_its_peers() {
        let pool = Pool::new(3, TransportKind::Shm);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&|m, ctx| match m {
                0 => panic!("node 0 exploded"),
                // Blocked on data that never comes: node 0's poison must
                // release it.
                1 => drop(ctx.recv()),
                _ => {}
            });
        }))
        .expect_err("dispatch re-raises node 0's panic");
        assert_eq!(message(&*err), "node 0 exploded");
        assert_fabric_clean(&pool);
        let sum = AtomicUsize::new(0);
        pool.dispatch(&|m, _ctx| {
            sum.fetch_add(m, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 3, "the next dispatch works");
    }

    #[test]
    fn a_worker_panic_is_reraised_over_the_callers_poison_panic() {
        let pool = Pool::new(3, TransportKind::Shm);
        for _ in 0..20 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.dispatch(&|m, ctx| match m {
                    1 => panic!("node 1 exploded"),
                    // The caller and node 2 block; node 1's poison
                    // releases each with a panic of its own, which node
                    // 2 may record before node 1 does.
                    _ => drop(ctx.recv()),
                });
            }))
            .expect_err("dispatch re-raises node 1's panic");
            assert_eq!(message(&*err), "node 1 exploded");
            assert_fabric_clean(&pool);
        }
    }

    /// `voluntary_ctxt_switches` of a thread of this process.
    #[cfg(target_os = "linux")]
    fn voluntary_switches(task: &std::path::Path) -> u64 {
        let status = std::fs::read_to_string(task.join("status")).expect("task status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("voluntary_ctxt_switches line")
    }

    /// Whether a thread of this process is asleep (`S` in its stat).
    #[cfg(target_os = "linux")]
    fn sleeping(task: &std::path::Path) -> bool {
        let stat = std::fs::read_to_string(task.join("stat")).expect("task stat");
        // The state follows the parenthesized command name.
        stat.rsplit_once(") ")
            .is_some_and(|(_, rest)| rest.starts_with('S'))
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn an_idle_pool_does_not_poll() {
        let pool = Pool::new(3, TransportKind::Shm);
        let tasks: Vec<Mutex<Option<std::path::PathBuf>>> =
            (0..3).map(|_| Mutex::new(None)).collect();
        pool.dispatch(&|m, _ctx| {
            // The link reads `<pid>/task/<tid>`, relative to `/proc`.
            *lock_clean(&tasks[m]) = std::fs::read_link("/proc/thread-self")
                .ok()
                .map(|task| std::path::Path::new("/proc").join(task));
        });
        let workers: Vec<std::path::PathBuf> = tasks[1..]
            .iter()
            .map(|t| lock_clean(t).clone().expect("/proc/thread-self resolves"))
            .collect();
        // Past the ladder: every worker is asleep, not spinning or
        // yielding (a loaded test host can stretch the yield phase).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !workers.iter().all(|w| sleeping(w)) {
            assert!(std::time::Instant::now() < deadline, "workers never park");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let before: Vec<u64> = workers.iter().map(|w| voluntary_switches(w)).collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        for (w, was) in workers.iter().zip(before) {
            let now = voluntary_switches(w);
            assert!(
                now - was <= 1,
                "{}: {was} -> {now} wake-ups while idle",
                w.display()
            );
        }
    }

    #[test]
    fn dropping_the_last_arc_ends_the_workers() {
        let pool = Arc::new(Pool::new(3, TransportKind::Shm));
        pool.dispatch(&|_, _| {});
        let slot = Arc::downgrade(&pool.slot);
        drop(pool);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while slot.upgrade().is_some() {
            assert!(
                std::time::Instant::now() < deadline,
                "workers outlive their pool"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn dispatch_runs_every_node_once() {
        let pool = global(6);
        let hits: Vec<Mutex<u32>> = (0..6).map(|_| Mutex::new(0)).collect();
        pool.dispatch(&|m, _ctx| {
            *lock_clean(&hits[m]) += 1;
        });
        pool.dispatch(&|m, _ctx| {
            *lock_clean(&hits[m]) += 10;
        });
        for h in &hits {
            assert_eq!(*lock_clean(h), 11);
        }
    }

    #[test]
    fn fabric_ring_pass() {
        for kind in TransportKind::ALL {
            let p = 5usize;
            let got: Vec<Mutex<i64>> = (0..p).map(|_| Mutex::new(-1)).collect();
            launch_with(p as i64, kind, |m, ctx| {
                ctx.send((m + 1) % p, Box::new(m as i64));
                let env = ctx.recv();
                *lock_clean(&got[m]) = *env.downcast::<i64>().expect("ring payload");
            });
            for (m, slot) in got.iter().enumerate() {
                let want = ((m + p - 1) % p) as i64;
                assert_eq!(*lock_clean(slot), want, "{} node {m}", kind.name());
            }
        }
    }

    #[test]
    fn barrier_synchronizes_all_backends() {
        for kind in TransportKind::ALL {
            let p = 4usize;
            let after: Vec<Mutex<u32>> = (0..p).map(|_| Mutex::new(0)).collect();
            launch_with(p as i64, kind, |m, ctx| {
                ctx.barrier();
                *lock_clean(&after[m]) += 1;
                ctx.barrier();
                // After the second barrier every node observed every
                // other node's first increment.
                let sum: u32 = after.iter().map(|s| *lock_clean(s)).sum();
                assert_eq!(sum, p as u32, "{} node {m}", kind.name());
            });
        }
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = BufferArena::default();
        let mut buf: Vec<i64> = arena.take();
        assert_eq!(buf.capacity(), 0);
        buf.extend(0..100);
        let cap = buf.capacity();
        arena.put(buf);
        let again: Vec<i64> = arena.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "capacity survives recycling");
        // Different payload types use different shelves.
        let other: Vec<u8> = arena.take();
        assert_eq!(other.capacity(), 0);
    }

    #[test]
    fn arena_takes_the_best_fit() {
        let mut arena = BufferArena::default();
        for cap in [4096usize, 16, 256] {
            arena.put(Vec::<i64>::with_capacity(cap));
        }
        let caps = |v: &Vec<i64>| v.capacity();
        let total = arena.bytes();
        assert!(total >= (4096 + 16 + 256) * 8, "shelved bytes are counted");
        // The smallest buffer that covers the request…
        let mid: Vec<i64> = arena.take_fit(100);
        assert!((256..4096).contains(&caps(&mid)), "got {}", caps(&mid));
        assert_eq!(arena.bytes(), total - caps(&mid) * 8);
        let small: Vec<i64> = arena.take_fit(1);
        assert!(caps(&small) < 256, "got {}", caps(&small));
        // …else the largest, which has the least left to grow.
        arena.put(small);
        let big: Vec<i64> = arena.take_fit(1 << 20);
        assert!(caps(&big) >= 4096, "got {}", caps(&big));
        let last: Vec<i64> = arena.take_fit(1 << 20);
        assert!(last.capacity() < 256 && last.is_empty());
        assert_eq!(arena.bytes(), 0);
        // An empty shelf allocates.
        let fresh: Vec<i64> = arena.take_fit(8);
        assert_eq!(fresh.capacity(), 0);
        // Equal fits go to the most recently shelved buffer.
        let (older, newer) = (vec![1i64; 64], vec![2i64; 64]);
        let newer_ptr = newer.as_ptr();
        arena.put(older);
        arena.put(newer);
        arena.put(Vec::<i64>::with_capacity(8));
        let got: Vec<i64> = arena.take_fit(64);
        assert_eq!(got.as_ptr(), newer_ptr, "ties take the newest");
    }

    #[test]
    fn nested_launch_falls_back_to_scoped() {
        let outer: Vec<Mutex<usize>> = (0..3).map(|_| Mutex::new(0)).collect();
        launch_with(3, TransportKind::Shm, |m, _ctx| {
            // A body that itself launches a machine must not dead-lock
            // on the pool gate.
            let inner: Vec<Mutex<usize>> = (0..2).map(|_| Mutex::new(0)).collect();
            launch_with(2, TransportKind::Shm, |j, _ctx| {
                *lock_clean(&inner[j]) += 1;
            });
            let total: usize = inner.iter().map(|s| *lock_clean(s)).sum();
            *lock_clean(&outer[m]) = total;
        });
        for slot in &outer {
            assert_eq!(*lock_clean(slot), 2);
        }
    }

    #[test]
    fn panic_poisons_and_pool_survives() {
        let pool = global(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&|m, ctx| {
                if m == 1 {
                    panic!("node job exploded");
                }
                if m == 2 {
                    // Blocked on data that will never come: must be
                    // released by node 1's poison, not hang.
                    let _ = ctx.recv();
                }
            });
        }));
        assert!(err.is_err(), "dispatch re-raises the node panic");
        // The pool stays usable and the fabric is clean.
        let clean: Vec<Mutex<bool>> = (0..4).map(|_| Mutex::new(false)).collect();
        pool.dispatch(&|m, ctx| {
            *lock_clean(&clean[m]) = ctx.fabric_is_clean();
        });
        for (m, slot) in clean.iter().enumerate() {
            assert!(*lock_clean(slot), "node {m} inbox drained after panic");
        }
    }

    #[test]
    fn registry_shares_one_pool_per_key() {
        let _serial = lock_clean(&REGISTRY_TEST_LOCK);
        let a = global_with(3, TransportKind::Shm);
        let b = global_with(3, TransportKind::Shm);
        assert!(Arc::ptr_eq(&a, &b));
        let other_kind = global_with(3, TransportKind::Proc);
        assert!(!Arc::ptr_eq(&a, &other_kind));
        let other_p = global_with(2, TransportKind::Shm);
        assert!(!Arc::ptr_eq(&a, &other_p));
    }

    /// Serializes the tests that assert on registry identity against
    /// the admission test's evictions (parallel test threads otherwise
    /// race on the shared process-wide registry).
    static REGISTRY_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Whether a pool for `(p, kind)` is currently registered.
    fn registered(p: usize, kind: TransportKind) -> bool {
        read_clean(registry_shard(p, kind))
            .iter()
            .any(|pool| pool.p == p && pool.kind == kind)
    }

    #[test]
    fn max_pools_parses_env_with_core_count_fallback() {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        assert_eq!(parse_max_pools(Some("3")), 3);
        assert_eq!(parse_max_pools(Some(" 12 ")), 12);
        assert_eq!(parse_max_pools(Some("1")), 1);
        assert_eq!(parse_max_pools(Some("0")), fallback);
        assert_eq!(parse_max_pools(Some("lots")), fallback);
        assert_eq!(parse_max_pools(None), fallback);
        assert!(max_pools() >= 1);
    }

    #[test]
    fn admission_evicts_idle_lru_pools() {
        let _serial = lock_clean(&REGISTRY_TEST_LOCK);
        // Machine sizes unique to this test, so concurrent tests' pools
        // are unrelated and cross-test Arc identities stay unaffected
        // (evicted pools survive through held Arcs anyway). Registered
        // directly rather than via `global_with`, whose own boot-time
        // admission would evict the earlier keys before the scenario is
        // even set up; the stamp order is 31 < 32 < 33 < 34. Their gates
        // are held until the scenario starts: busy pools are never
        // admission victims, so boots by concurrently running tests
        // cannot evict them from under the setup checks.
        let held: Vec<Arc<Pool>> = [31usize, 32, 33, 34]
            .iter()
            .map(|&p| Arc::new(Pool::new(p, TransportKind::Shm)))
            .collect();
        let busy: Vec<MutexGuard<'_, NodeCtx>> =
            held.iter().map(|pool| lock_clean(&pool.gate)).collect();
        for pool in &held {
            pool.touch();
            write_clean(registry_shard(pool.p, TransportKind::Shm)).push(Arc::clone(pool));
        }
        for &p in &[31usize, 32, 33, 34] {
            assert!(registered(p, TransportKind::Shm));
        }
        drop(busy);
        // Cap of 2 with a keep-key matching none of them: the three
        // stalest idle pools must be evicted, leaving the fleet under
        // the cap with only the most recently used survivor.
        enforce_pool_cap(2, 0, TransportKind::Shm);
        assert!(!registered(31, TransportKind::Shm), "LRU pool evicted");
        assert!(!registered(32, TransportKind::Shm));
        assert!(!registered(33, TransportKind::Shm));
        // Eviction drops only the registry's Arc: held pools still
        // dispatch fine, and a fresh lookup re-boots a new pool.
        held[0].dispatch(&|_m, _ctx| {});
        let reborn = global_with(31, TransportKind::Shm);
        assert!(!Arc::ptr_eq(&held[0], &reborn), "evicted key re-boots");
    }

    #[test]
    fn build_all_matches_sequential() {
        let problem = Problem::new(7, 5, 3, 4).unwrap();
        let pooled = build_all(&problem, Method::Lattice).unwrap();
        let seq: Vec<AccessPattern> = (0..7)
            .map(|m| bcag_core::method::build(&problem, m, Method::Lattice).unwrap())
            .collect();
        assert_eq!(pooled, seq);
    }
}
