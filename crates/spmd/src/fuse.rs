//! The plan compiler: fuse a whole statement's communication and compute
//! into one specialized per-node epoch — the only code that moves array
//! data.
//!
//! The paper's point is that the access sequence, the communication sets,
//! and the contiguity classes of a statement are pure functions of
//! `(p, k, section)` parameters, never of array contents, so all of that
//! structure is computable ahead of execution.
//!
//! This module compiles a statement shape once into a [`FusedStatement`]:
//! per node, the gathers of its outgoing messages and a list of **apply
//! steps**. A step is an inner LHS run `addr + j·gap` (`j < len`) repeated
//! `reps` times `delta` apart, and it carries one stream per operand. A
//! stream reads either the operand's own local memory, in place, at
//! `at + r·δ + j·g`, or the payload kept from one source node, at
//! `off + r·δ + j`. This is the paper's node code (§6.2): the owner walks
//! its local memory and reads each operand where it lies, and only remote
//! values travel. Where the repeats allow it, a step flattens into one
//! run: a step that continues contiguously on every side, or an inner run
//! of length 1, which becomes one strided run. So a dense same-layout
//! statement is one step per node.
//!
//! [`compile`] builds the steps from **one period** of the statement's
//! section ranks, `L = lcm` of every side's `p·k / gcd(s, p·k)`, plus the
//! tail past its `R = ⌊n / L⌋` repeats, so compile time and program size
//! follow the period rather than `n`. When `L ≥ n` the period is the whole
//! section and `R = 1`; that is the same code path. One pass over the
//! period's ranks, in ascending order, serves every node: each rank grows
//! its LHS owner's open step while the LHS address and every stream
//! advance by constant gaps. Every per-repeat delta is the difference of
//! two real local addresses. The send side is each operand's cached
//! [`crate::comm::CommSchedule`] period, repeated, then its tail.
//!
//! The epoch is **monomorphized over the statement body** `f`: the apply
//! walker matches a step's LHS [`ShapeClass`] once and runs its loop at
//! the class's literal gap, with one slice fast path when every stream
//! has gap 1, and calls `f` inline on a fixed-size argument array (a
//! reused `Vec` only past three operands). The executed epoch does no
//! per-statement schedule walk and exactly **one pool dispatch**. Because
//! the compiler sees every operand at once, it **coalesces messages by
//! destination**: one physical message per (src, dst) pair per epoch,
//! every operand's transfers packed back to back in operand order, each
//! in section-rank order. That keeps the shm fabric's rings safe by
//! construction. Trace counters are still charged per logical
//! (operand, peer) message at canonical wire size, so deterministic
//! totals equal the schedule's closed forms (`total_elements`,
//! `nonlocal_elements`, `nonempty_nonlocal_pairs`, `wire_size`).
//!
//! One compiled program runs three ways, sharing each per-node phase —
//! send, drain, apply. No run copies an LHS image or scatters a payload:
//!
//! * **Expression epoch** ([`FusedStatement::execute`]) —
//!   `A(sec_a) = f(B₀(sec₀), …)`: each node sends, keeps each source's
//!   one payload, and applies `f` over its steps. Operands never alias
//!   the LHS (`execute` takes `&mut` for the LHS and `&` for operands;
//!   the interpreter copies a self-referenced LHS first), so reading them
//!   in place keeps the statement's read-before-write semantics.
//! * **Copy epoch** ([`assign_copy_on`]) — `A(sec_a) = B(sec_b)`: the
//!   one-operand program's steps with the identity body. Redistribution,
//!   [`crate::statement::assign_array`] and the shift intrinsics run this
//!   way.
//! * **Replicated run** ([`FusedStatement::replicated`]) — inside a
//!   `bcag spmd` node process, which holds every node's local image: the
//!   process sends its own row as real bytes over the session pipes,
//!   gathers every other `(src, dst)` payload in process, receives its
//!   own payloads from the pipes and applies every node's steps. Only its
//!   own row is counted, so merged per-process traces equal in-process
//!   ones, and malformed inbound frames — a wrong source tag or a length
//!   other than the compiled pair's — are [`BcagError::Protocol`] errors.
//!
//! Every run first checks that each section lies inside its array, so an
//! out-of-range statement is a [`BcagError::Precondition`] rather than a
//! node panic. While tracing, every node records one sample per epoch
//! into `fuse_stage_ns` (always 0: nothing is staged), `fuse_send_ns`,
//! `fuse_drain_ns` (the receive loop, waits included) and
//! `fuse_apply_ns`, on its own lane; the replicated run times only its
//! own node, so merged `--procs` histograms count exactly what an
//! in-process run does.
//!
//! Programs are cached in the sharded plan cache ([`crate::cache::fused`])
//! next to the schedules they were compiled from, so single-flight builds
//! and LRU eviction cover them for free.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bcag_core::error::{BcagError, Result};
use bcag_core::lower::ShapeClass;
use bcag_core::method::Method;
use bcag_core::numth;
use bcag_core::section::RegularSection;
use bcag_core::tune;

use crate::cache;
use crate::comm::schedule::{rank_period, PairPeriod};
use crate::comm::wire::{self, PackValue};
use crate::comm::ExecMode;
use crate::darray::DistArray;
use crate::pool::{self, lock_clean, LaunchMode, NodeCtx};
use crate::transport::proc::Session;
use crate::transport::{self, TransportKind};

/// The statement executor. Fused epochs are the only one, so this has a
/// single variant; it survives because benchmark reports still record
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedMode {
    /// Compile and run fused per-node epochs.
    On,
}

impl FusedMode {
    /// Short human-readable name (used by benchmark reports).
    pub fn name(&self) -> &'static str {
        "fused"
    }
}

/// The process's statement executor (always [`FusedMode::On`]).
pub fn default_fused() -> FusedMode {
    FusedMode::On
}

/// Whether a fused epoch has run in this process.
static EPOCH_RAN: AtomicBool = AtomicBool::new(false);

/// Whether the most recent fused epoch on this process ran L2-blocked:
/// `Some(false)` once any epoch ran — no epoch is blocked — and `None`
/// before. Kept because the ledger and benches still ask.
pub fn last_blocked() -> Option<bool> {
    EPOCH_RAN.load(Ordering::Relaxed).then_some(false)
}

/// The L2-residency block size [`tune::block_elems_for`] derives for a
/// statement whose LHS section is `sec_a`. The ledger and benches still
/// pass it to [`compile`] and [`cached_program`]; it no longer changes
/// the compiled program.
pub fn epoch_block_elems<T: PackValue>(sec_a: &RegularSection) -> usize {
    tune::block_elems_for(
        sec_a.count() as u64,
        std::mem::size_of::<T>(),
        tune::l2_bytes(),
    )
}

/// Runs `$body` with `$g` bound to a run's gap: the literal gap of a
/// specialized [`ShapeClass`], which constant-folds into the run's loop
/// and through the [`PackValue`] primitives, or the runtime `$gap` for
/// [`ShapeClass::Wide`]. The gather and apply walkers dispatch through
/// this once per run, so the compiled steps stay plain data.
macro_rules! with_gap {
    ($class:expr, $gap:expr, |$g:ident| $body:expr) => {
        match $class {
            ShapeClass::Memcpy => {
                let $g: usize = 1;
                $body
            }
            ShapeClass::Stride2 => {
                let $g: usize = 2;
                $body
            }
            ShapeClass::Stride3 => {
                let $g: usize = 3;
                $body
            }
            ShapeClass::Stride4 => {
                let $g: usize = 4;
                $body
            }
            ShapeClass::Wide => {
                let $g: usize = $gap;
                $body
            }
        }
    };
}

/// The walker class of a gap for elements of type `T`. A specialized
/// class always means exactly its literal gap, which [`with_gap!`]
/// relies on.
fn class_of<T>(gap: usize) -> ShapeClass {
    ShapeClass::of_gap_for(gap as i64, std::mem::size_of::<T>())
}

/// One gather run of an outgoing message: `len` elements of an operand's
/// local memory at `addr, addr + gap, …`.
#[derive(Debug, Clone, Copy)]
struct GatherRun {
    addr: usize,
    gap: usize,
    class: ShapeClass,
    len: usize,
}

/// One operand's share of an outgoing message, or part of it: the runs
/// `runs` of operand `op`, `reps` times, the source advancing `delta` per
/// copy — one schedule period and its repeats, or the tail.
#[derive(Debug, Clone)]
struct GatherBlock {
    op: usize,
    reps: usize,
    delta: usize,
    runs: Range<usize>,
}

/// The physical message from this node to `dst`: every operand's
/// transfers in section-rank order, packed back to back in operand
/// order. `charges` keeps one canonical wire size per *logical*
/// (operand, destination) message, so trace totals equal the
/// per-operand schedules' closed forms.
struct SendPlan {
    dst: usize,
    elements: usize,
    charges: Vec<u64>,
    blocks: Vec<GatherBlock>,
    runs: Vec<GatherRun>,
}

/// The physical message expected from `src`: `len` values in the layout
/// its sender packs, kept whole and read in place by the apply steps'
/// message streams. The schedule is global knowledge, so the wire carries
/// only values.
struct RecvPlan {
    src: usize,
    len: usize,
    charges: Vec<u64>,
}

/// Where one operand's values for an apply step come from: buffer `buf`
/// — operand `buf`'s own local memory when `buf < nops`, else the payload
/// kept from the node's `(buf − nops)`-th receive — at
/// `at + r·delta + j·gap` for repeat `r` and inner element `j`.
#[derive(Debug, Clone, Copy)]
struct Stream {
    buf: usize,
    at: usize,
    gap: usize,
    delta: usize,
}

/// One apply step: the LHS elements `addr + r·delta + j·gap` for
/// `j < len` and `r < reps`, each computed from one value per operand
/// stream.
#[derive(Debug, Clone, Copy)]
struct ApplyStep {
    addr: usize,
    gap: usize,
    class: ShapeClass,
    len: usize,
    reps: usize,
    delta: usize,
    /// Every stream has gap 1: the apply walker's slice fast path.
    unit: bool,
}

/// The compiled epoch of one node: its outgoing and expected messages,
/// its apply steps as plain data, and the precomputed trace counter
/// totals the epoch charges (the per-operand schedules' own-row totals,
/// summed).
#[derive(Default)]
struct NodeProgram {
    /// Outgoing physical messages, in destination order.
    sends: Vec<SendPlan>,
    /// Expected inbound physical messages, in source order.
    recvs: Vec<RecvPlan>,
    steps: Vec<ApplyStep>,
    /// The steps' streams, `nops` per step, step-major.
    streams: Vec<Stream>,
    /// Total outgoing transfers (all destinations, self included).
    moved: u64,
    /// Non-empty non-self (operand, destination) messages.
    msgs: u64,
    /// Elements leaving this node.
    nonlocal: u64,
    /// Multi-element LHS runs the apply steps walk.
    seg_count: u64,
    /// Elements covered by those runs.
    seg_elems: u64,
}

/// Bytes of the source-node routing tag appended to wire-encoded fused
/// messages (see [`encode_block`]).
const WIRE_TAG_BYTES: usize = 4;

/// A whole statement `A(sec_a) = f(B₀(sec₀), …)` compiled to per-node
/// epochs: built once per statement shape by [`compile`], cached in the
/// sharded plan cache, executed many times by [`FusedStatement::execute`].
pub struct FusedStatement<T: PackValue> {
    p: i64,
    /// Operands, and so streams per apply step.
    nops: usize,
    nodes: Vec<NodeProgram>,
    /// The element type the runs' classes were chosen for.
    elem: PhantomData<T>,
}

/// Structural summary of a compiled [`FusedStatement`] — totals over all
/// nodes, for `bcag stats` and planning tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuseCensus {
    /// Logical (operand, peer) messages compiled across all nodes.
    pub sends: usize,
    /// Logical inbound messages compiled across all nodes.
    pub recvs: usize,
    /// Physical messages: at most one per (src, dst) pair per epoch.
    pub send_blocks: usize,
    /// Apply steps across all nodes.
    pub apply_segments: usize,
    /// Apply-step streams that read an operand in place.
    pub local_streams: usize,
}

impl<T: PackValue> FusedStatement<T> {
    /// Structural totals of the compiled program. `sends`/`recvs` count
    /// *logical* (operand, peer) messages — the schedules' unit — and
    /// `send_blocks` the physical messages they coalesce into.
    pub fn census(&self) -> FuseCensus {
        let mut c = FuseCensus::default();
        for n in &self.nodes {
            c.sends += n.sends.iter().map(|s| s.charges.len()).sum::<usize>();
            c.recvs += n.recvs.iter().map(|r| r.charges.len()).sum::<usize>();
            c.send_blocks += n.sends.len();
            c.apply_segments += n.steps.len();
            c.local_streams += n.streams.iter().filter(|s| s.buf < self.nops).count();
        }
        c
    }

    /// Heap bytes the compiled program holds. It follows the statement's
    /// period, not its length.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<V>(v: &Vec<V>) -> usize {
            v.capacity() * std::mem::size_of::<V>()
        }
        let node = |n: &NodeProgram| {
            let sends: usize = n
                .sends
                .iter()
                .map(|s| bytes(&s.charges) + bytes(&s.blocks) + bytes(&s.runs))
                .sum();
            let recvs: usize = n.recvs.iter().map(|r| bytes(&r.charges)).sum();
            bytes(&n.sends) + bytes(&n.recvs) + bytes(&n.steps) + bytes(&n.streams) + sends + recvs
        };
        bytes(&self.nodes) + self.nodes.iter().map(node).sum::<usize>()
    }

    /// Runs the expression epoch: one pool dispatch executes send →
    /// drain → apply for the whole statement, with the apply loop
    /// monomorphized over `f`.
    /// `operands` must be the arrays the program was compiled for, in
    /// compile order (same `p`, `k`, and sections); contents are free to
    /// vary. `kind` picks the payload form on the ring fabric; `_launch`
    /// is always [`LaunchMode::Pooled`]. Inside a multi-process session
    /// use the statement entry points ([`assign_fused_on`],
    /// [`crate::statement::assign_expr`]), which run the replicated form
    /// instead.
    pub fn execute<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: F,
        _launch: LaunchMode,
        kind: TransportKind,
    ) where
        F: Fn(&[T]) -> T + Sync,
    {
        self.epoch(a, operands, Some(&f), kind);
    }

    /// Runs the copy epoch `A(sec_a) = B(sec_b)` of a one-operand
    /// program: its apply steps with the identity body.
    pub(crate) fn copy(&self, a: &mut DistArray<T>, b: &DistArray<T>, kind: TransportKind) {
        assert_eq!(self.nops, 1, "a copy runs a one-operand program");
        self.epoch(a, &[b], None::<&NoBody<T>>, kind);
    }

    /// The pool epoch behind [`FusedStatement::execute`] (`f` is `Some`)
    /// and [`FusedStatement::copy`] (`f` is `None`).
    fn epoch<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: Option<&F>,
        kind: TransportKind,
    ) where
        F: Fn(&[T]) -> T + Sync + ?Sized,
    {
        assert_eq!(a.p(), self.p, "LHS machine size mismatch");
        let _sp = bcag_trace::span("fuse.execute");
        let _t = bcag_trace::timed_span("fuse_execute_ns");
        bcag_trace::set_tag("transport", kind.name());
        note_epoch(true);
        let slots: Vec<Mutex<&mut Vec<T>>> = a.locals_mut().iter_mut().map(Mutex::new).collect();
        pool::launch_with(self.p, kind, |me, ctx| {
            let _sp = bcag_trace::span("fuse.epoch.node");
            let mut slot = lock_clean(&slots[me]);
            let ops: Vec<&[T]> = operands.iter().map(|b| b.local(me as i64)).collect();
            self.nodes[me].run_epoch(me, ctx, &mut slot, &ops, f);
            bcag_trace::gauge("pool_arena_bytes", ctx.arena().bytes() as u64);
        });
    }

    /// The replicated run of a multi-process session: this process is
    /// node `session.me()`, but holds — and keeps current — every node's
    /// local image of `a`. Its own row really travels the session pipes;
    /// every other `(src, dst)` payload is gathered in process. Inbound
    /// frames are peer input, so a wrong source tag or a payload length
    /// other than the compiled pair's is a [`BcagError::Protocol`] error.
    /// `f` is `None` for a copy. Only the own row is counted and timed
    /// (and the once-per-statement counters only on node 0), so merged
    /// per-process traces equal an in-process run's.
    pub fn replicated<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: Option<&F>,
        session: &Session,
    ) -> Result<()>
    where
        F: Fn(&[T]) -> T + Sync + ?Sized,
    {
        if T::WIRE_BYTES.is_none() {
            return Err(BcagError::Precondition(
                "multi-process execution requires a fixed-width wire payload type",
            ));
        }
        let p = self.p as usize;
        if session.p() != p {
            return Err(BcagError::Precondition(
                "spmd session size differs from the statement's machine",
            ));
        }
        let me = session.me();
        let _sp = bcag_trace::span("fuse.execute");
        let _t = bcag_trace::timed_span("fuse_execute_ns");
        bcag_trace::set_tag("transport", TransportKind::Proc.name());
        note_epoch(me == 0);
        let _node = bcag_trace::span("fuse.epoch.node");
        let ops_of =
            |n: usize| -> Vec<&[T]> { operands.iter().map(|b| b.local(n as i64)).collect() };
        bcag_trace::record("fuse_stage_ns", 0);
        self.nodes[me].count_row::<T>();
        // kept[n][i]: node n's payload from its i-th source. Own row
        // first, so peers blocked on it progress, then every other row;
        // this node's own inbound payloads arrive from the pipes.
        let mut kept: Vec<Vec<Vec<T>>> = self
            .nodes
            .iter()
            .map(|n| n.recvs.iter().map(|_| Vec::new()).collect())
            .collect();
        for src in std::iter::once(me).chain((0..p).filter(|&n| n != me)) {
            let t = PhaseTimer::start();
            let ops = ops_of(src);
            for send in self.nodes[src].sends.iter().filter(|s| s.dst != me) {
                let mut vals = Vec::with_capacity(send.elements);
                send.gather(&ops, &mut vals);
                if src == me {
                    send.charge();
                    session.send_data(send.dst, encode_block(me, &vals));
                }
                kept[send.dst][self.nodes[send.dst].recv_index(src)] = vals;
            }
            if src == me {
                t.record("fuse_send_ns");
            }
        }
        let t = PhaseTimer::start();
        let mut wait_ns = 0u64;
        for (i, plan) in self.nodes[me].recvs.iter().enumerate() {
            let bytes = timed_recv(&mut wait_ns, || session.recv_from(plan.src))?;
            plan.charge();
            let vals = &mut kept[me][i];
            if decode_block(&bytes, vals)? != plan.src {
                return Err(BcagError::Protocol(
                    "fused message source tag disagrees with its frame",
                ));
            }
            if vals.len() != plan.len {
                return Err(BcagError::Protocol(
                    "fused message length disagrees with its compiled pair",
                ));
            }
        }
        t.record("fuse_drain_ns");
        bcag_trace::count("recv_wait_ns", wait_ns);
        for (n, local) in a.locals_mut().iter_mut().enumerate() {
            let t = PhaseTimer::start();
            self.nodes[n].apply(local, &ops_of(n), &kept[n], f);
            if n == me {
                t.record("fuse_apply_ns");
            }
        }
        Ok(())
    }
}

/// Epoch-level bookkeeping: the flight recorder's note that an epoch
/// ran and, when `counted`, the once-per-statement counter.
fn note_epoch(counted: bool) {
    EPOCH_RAN.store(true, Ordering::Relaxed);
    if counted {
        bcag_trace::count("fused_epochs", 1);
    }
}

/// The body type parameter of a copy run. A copy has no body — its `f`
/// is always `None` and it applies [`identity`] — so no function of this
/// type is ever called.
type NoBody<T> = fn(&[T]) -> T;

/// The body of a copy: the single operand's value.
fn identity<T: Clone>(v: &[T]) -> T {
    v[0].clone()
}

/// Wall clock of one epoch phase. It runs only while tracing, so a
/// disabled epoch pays one relaxed load per phase.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start() -> PhaseTimer {
        PhaseTimer(bcag_trace::enabled().then(Instant::now))
    }

    /// Records the time since `start` as one sample of the histogram
    /// `name` and returns it; records nothing when tracing was off.
    fn record(&self, name: &'static str) -> u64 {
        let Some(t0) = self.0 else { return 0 };
        let ns = t0.elapsed().as_nanos() as u64;
        bcag_trace::record(name, ns);
        ns
    }
}

/// Runs one blocking receive, charging its wait to `wait_ns` and to the
/// `recv_wait_ns` histogram (one sample per received message).
fn timed_recv<R>(wait_ns: &mut u64, recv: impl FnOnce() -> R) -> R {
    let t = PhaseTimer::start();
    let got = recv();
    *wait_ns += t.record("recv_wait_ns");
    got
}

/// Apply phase: the owner-computes loop over a node's steps, calling `f`
/// inline on the operand values in operand order — a fixed-size argument
/// array for up to three operands, one reused `Vec` beyond that. `bufs`
/// holds the operands' local memories, then the kept payloads.
fn apply_steps<T, F>(
    out: &mut [T],
    bufs: &[&[T]],
    steps: &[ApplyStep],
    streams: &[Stream],
    nops: usize,
    f: &F,
) where
    T: PackValue,
    F: Fn(&[T]) -> T + ?Sized,
{
    match nops {
        0 => apply_fixed::<T, F, 0>(out, bufs, steps, streams, f),
        1 => apply_fixed::<T, F, 1>(out, bufs, steps, streams, f),
        2 => apply_fixed::<T, F, 2>(out, bufs, steps, streams, f),
        3 => apply_fixed::<T, F, 3>(out, bufs, steps, streams, f),
        _ => {
            let mut args: Vec<T> = Vec::with_capacity(nops);
            for (step, ss) in steps.iter().zip(streams.chunks_exact(nops)) {
                with_gap!(step.class, step.gap, |g| {
                    for r in 0..step.reps {
                        let base = step.addr + r * step.delta;
                        for j in 0..step.len {
                            args.clear();
                            args.extend(
                                ss.iter()
                                    .map(|s| bufs[s.buf][s.at + r * s.delta + j * s.gap].clone()),
                            );
                            out[base + j * g] = f(&args);
                        }
                    }
                })
            }
        }
    }
}

/// Apply walker for `N ≤ 3` operands: per step, one class match; per
/// repeat, one slice of the LHS image and of each stream, then a loop at
/// the class's literal gap that passes `f` an `N`-element array. When
/// every stream has gap 1, the streams are plain slices of the run's
/// length.
fn apply_fixed<T, F, const N: usize>(
    out: &mut [T],
    bufs: &[&[T]],
    steps: &[ApplyStep],
    streams: &[Stream],
    f: &F,
) where
    T: PackValue,
    F: Fn(&[T]) -> T + ?Sized,
{
    for (i, step) in steps.iter().enumerate() {
        let ss: [Stream; N] = std::array::from_fn(|q| streams[i * N + q]);
        let len = step.len;
        with_gap!(step.class, step.gap, |g| {
            for r in 0..step.reps {
                let base = step.addr + r * step.delta;
                let seg = &mut out[base..base + (len - 1) * g + 1];
                if step.unit {
                    let ins: [&[T]; N] = ss.map(|s| {
                        let at = s.at + r * s.delta;
                        &bufs[s.buf][at..at + len]
                    });
                    for j in 0..len {
                        seg[j * g] = f(&ins.map(|x| x[j].clone()));
                    }
                } else {
                    let ins: [&[T]; N] = ss.map(|s| {
                        let at = s.at + r * s.delta;
                        &bufs[s.buf][at..at + (len - 1) * s.gap + 1]
                    });
                    for j in 0..len {
                        let args: [T; N] = std::array::from_fn(|q| ins[q][j * ss[q].gap].clone());
                        seg[j * g] = f(&args);
                    }
                }
            }
        })
    }
}

/// Wire form of one fused message: the run-encoded payload with no spans
/// (the receiver's compiled plan carries the layout), then the sender's
/// node index, which routes the message on fabrics whose envelopes do
/// not say where they came from.
fn encode_block<T: PackValue>(src: usize, vals: &[T]) -> Vec<u8> {
    let mut bytes = wire::encode::<T>(&[], vals);
    bytes.extend_from_slice(&(src as u32).to_le_bytes());
    bytes
}

/// Decodes a message produced by [`encode_block`] into `vals` and
/// returns its source tag; malformed bytes are [`BcagError::Protocol`]
/// errors.
fn decode_block<T: PackValue>(bytes: &[u8], vals: &mut Vec<T>) -> Result<usize> {
    let Some(tag_at) = bytes.len().checked_sub(WIRE_TAG_BYTES) else {
        return Err(BcagError::Protocol("fused message has no source tag"));
    };
    let mut spans = Vec::new();
    wire::decode_into(&bytes[..tag_at], &mut spans, vals)?;
    if !spans.is_empty() {
        return Err(BcagError::Protocol("fused message carries run spans"));
    }
    let mut tag = [0u8; WIRE_TAG_BYTES];
    tag.copy_from_slice(&bytes[tag_at..]);
    Ok(u32::from_le_bytes(tag) as usize)
}

impl SendPlan {
    /// Gather walker (the pack phase): gathers this message's payload
    /// from the sending node's operand images, in rank order.
    fn gather<T: PackValue>(&self, ops: &[&[T]], out: &mut Vec<T>) {
        out.reserve(self.elements);
        for blk in &self.blocks {
            let runs = &self.runs[blk.runs.clone()];
            for r in 0..blk.reps {
                let shift = r * blk.delta;
                for run in runs {
                    with_gap!(run.class, run.gap, |gap| T::extend_run(
                        out,
                        ops[blk.op],
                        run.addr + shift,
                        gap,
                        run.len
                    ));
                }
            }
        }
    }

    /// Charges the peer's logical messages at the canonical run-encoded
    /// size (span headers included even though fused messages carry no
    /// spans), so counts and totals are the schedules' on every backend.
    fn charge(&self) {
        if !bcag_trace::enabled() {
            return;
        }
        for &tx in &self.charges {
            bcag_trace::count("transport_bytes_tx", tx);
            bcag_trace::record("msg_bytes", tx);
            bcag_trace::record(
                bcag_trace::intern(&format!("msg_bytes_to_{}", self.dst)),
                tx,
            );
        }
    }

    /// Appends operand `op`'s transfers to `self.dst` in rank order: the
    /// schedule period's runs, `repeats` times, then the tail. A one-run
    /// period that continues contiguously across copies, or whose run is
    /// a single element, becomes one run.
    fn push_pair<T>(&mut self, op: usize, pp: &PairPeriod) {
        let run_of = |r: &crate::comm::TransferRun, shift: i64, len: i64, gap: i64| GatherRun {
            addr: (r.src_local + shift) as usize,
            gap: gap as usize,
            class: class_of::<T>(gap as usize),
            len: len as usize,
        };
        let block = |plan: &mut SendPlan, reps: i64, delta: i64, runs: &[GatherRun]| {
            let start = plan.runs.len();
            plan.runs.extend_from_slice(runs);
            plan.blocks.push(GatherBlock {
                op,
                reps: reps as usize,
                delta: delta as usize,
                runs: start..plan.runs.len(),
            });
        };
        let (reps, delta) = (pp.repeats, pp.delta.0);
        if let ([run], true) = (pp.runs, reps >= 2) {
            if run.len == 1 || delta == run.len * run.sgap {
                let gap = if run.len == 1 { delta } else { run.sgap };
                let len = reps * run.len + if pp.tail_runs == 1 { pp.tail_cut } else { 0 };
                block(self, 1, 0, &[run_of(run, 0, len, gap)]);
                return;
            }
        }
        if reps >= 1 {
            let runs: Vec<GatherRun> = pp
                .runs
                .iter()
                .map(|r| run_of(r, 0, r.len, r.sgap))
                .collect();
            block(self, reps, delta, &runs);
        }
        if pp.tail_runs > 0 {
            let shift = reps * delta;
            let tail = &pp.runs[..pp.tail_runs];
            let runs: Vec<GatherRun> = tail
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let len = if i + 1 == tail.len() {
                        pp.tail_cut
                    } else {
                        r.len
                    };
                    run_of(r, shift, len, r.sgap)
                })
                .collect();
            block(self, 1, 0, &runs);
        }
    }
}

impl RecvPlan {
    /// Receive-side twin of [`SendPlan::charge`].
    fn charge(&self) {
        for &rx in &self.charges {
            bcag_trace::count("transport_bytes_rx", rx);
        }
    }
}

impl NodeProgram {
    /// Emits this node's folded movement counters: one emission per
    /// epoch instead of one per (operand, destination), same totals.
    fn count_row<T>(&self) {
        bcag_trace::count("elements_moved", self.moved);
        bcag_trace::count("bytes_packed", self.moved * std::mem::size_of::<T>() as u64);
        if self.msgs > 0 {
            bcag_trace::count("messages_sent", self.msgs);
            bcag_trace::count("elements_nonlocal", self.nonlocal);
        }
        bcag_core::runs::count_coalesced(self.seg_count, self.seg_elems);
    }

    /// The index of the receive plan from `src`.
    fn recv_index(&self, src: usize) -> usize {
        self.recvs
            .binary_search_by_key(&src, |r| r.src)
            .expect("inbound message matches a compiled receive")
    }

    /// Apply phase: walks the steps with `f`, or with the identity body
    /// for a copy, reading the operands in place and the kept payloads.
    fn apply<T, F>(&self, out: &mut [T], ops: &[&[T]], kept: &[Vec<T>], f: Option<&F>)
    where
        T: PackValue,
        F: Fn(&[T]) -> T + ?Sized,
    {
        let bufs: Vec<&[T]> = ops
            .iter()
            .copied()
            .chain(kept.iter().map(Vec::as_slice))
            .collect();
        match f {
            Some(f) => apply_steps(out, &bufs, &self.steps, &self.streams, ops.len(), f),
            None => apply_steps(out, &bufs, &self.steps, &self.streams, 1, &identity::<T>),
        }
    }

    /// One node's pool epoch: send one message per peer, keep exactly
    /// one payload per source, apply. Nothing is staged, so the stage
    /// phase records 0 and every epoch samples the same phases.
    fn run_epoch<T, F>(
        &self,
        me: usize,
        ctx: &mut NodeCtx,
        local_a: &mut [T],
        ops: &[&[T]],
        f: Option<&F>,
    ) where
        T: PackValue,
        F: Fn(&[T]) -> T + Sync + ?Sized,
    {
        self.count_row::<T>();
        bcag_trace::record("fuse_stage_ns", 0);
        let use_wire = ctx.serializes() && T::WIRE_BYTES.is_some();
        let t = PhaseTimer::start();
        for send in &self.sends {
            let mut vals: Vec<T> = ctx.arena().take_fit(send.elements);
            send.gather(ops, &mut vals);
            send.charge();
            if use_wire {
                let bytes = encode_block(me, &vals);
                ctx.put_buf(vals);
                ctx.send(send.dst, Box::new(bytes));
            } else {
                // In memory the source rides beside the values; the
                // layout is compiled into the receiver's steps.
                ctx.send(send.dst, Box::new((me, vals)));
            }
        }
        t.record("fuse_send_ns");
        // Drain: exactly one message per source, routed by its tag since
        // arrival order across sources is nondeterministic, and kept
        // whole for the apply steps to read.
        let t = PhaseTimer::start();
        let mut wait_ns = 0u64;
        let mut kept: Vec<Vec<T>> = self.recvs.iter().map(|_| Vec::new()).collect();
        for _ in 0..self.recvs.len() {
            let env = timed_recv(&mut wait_ns, || ctx.recv());
            let (src, vals) = if use_wire {
                let bytes = env
                    .downcast::<Vec<u8>>()
                    .expect("fused wire message payload type");
                let mut vals: Vec<T> = ctx.take_buf();
                let src =
                    decode_block(&bytes, &mut vals).unwrap_or_else(|e| panic!("fused epoch: {e}"));
                (src, vals)
            } else {
                *env.downcast::<(usize, Vec<T>)>()
                    .expect("fused message payload type")
            };
            let i = self.recv_index(src);
            self.recvs[i].charge();
            debug_assert_eq!(vals.len(), self.recvs[i].len, "payload from node {src}");
            kept[i] = vals;
        }
        t.record("fuse_drain_ns");
        bcag_trace::count("recv_wait_ns", wait_ns);
        let t = PhaseTimer::start();
        self.apply(local_a, ops, &kept, f);
        t.record("fuse_apply_ns");
        kept.into_iter().for_each(|v| ctx.put_buf(v));
    }

    /// Appends one section rank to this node's steps: LHS address `addr`
    /// and, per operand, `(buf, at)`. The rank grows the open step — the
    /// last one, unless it already repeats — when the LHS address and
    /// every stream continue by constant gaps on the same buffers;
    /// otherwise it opens a step.
    fn push_rank(&mut self, addr: usize, cur: &[(usize, usize)]) {
        if let Some(step) = self.steps.last_mut().filter(|s| s.reps == 1) {
            let open = self.streams.len() - cur.len();
            let ss = &mut self.streams[open..];
            if ss.iter().zip(cur).all(|(s, &(buf, _))| s.buf == buf) {
                if step.len == 1 {
                    step.gap = addr - step.addr;
                    for (s, &(_, at)) in ss.iter_mut().zip(cur) {
                        s.gap = at - s.at;
                    }
                    step.len = 2;
                    return;
                }
                if addr == step.addr + step.len * step.gap
                    && ss
                        .iter()
                        .zip(cur)
                        .all(|(s, &(_, at))| at == s.at + step.len * s.gap)
                {
                    step.len += 1;
                    return;
                }
            }
        }
        self.steps.push(ApplyStep {
            addr,
            gap: 1,
            class: ShapeClass::Memcpy,
            len: 1,
            reps: 1,
            delta: 0,
            unit: true,
        });
        self.streams.extend(cur.iter().map(|&(buf, at)| Stream {
            buf,
            at,
            gap: 1,
            delta: 0,
        }));
    }
}

/// One side of a statement — the LHS or an operand — walked rank by
/// rank: the owner and local address of the element `l + t·s` on a
/// `(p, k)` layout, kept as course `c`, owner `m` and block offset `r`
/// (`g = (c·p + m)·k + r`) and advanced without a division per rank.
/// The walk only ever stands on real elements, so nothing overflows.
#[derive(Debug, Clone, Copy)]
struct Walk {
    p: i64,
    k: i64,
    c: i64,
    m: i64,
    r: i64,
    dc: i64,
    dm: i64,
    dr: i64,
}

impl Walk {
    /// The walk of `sec` at rank `t`, which must be a rank of `sec`.
    fn at(p: i64, k: i64, sec: &RegularSection, t: i64) -> Walk {
        let g = (sec.l as i128 + t as i128 * sec.s as i128) as i64;
        let q = g / k;
        Walk {
            p,
            k,
            c: q / p,
            m: q % p,
            r: g % k,
            dc: sec.s / k / p,
            dm: sec.s / k % p,
            dr: sec.s % k,
        }
    }

    /// Steps to the next rank.
    fn step(&mut self) {
        let carry = if self.r >= self.k - self.dr {
            self.r -= self.k - self.dr;
            1
        } else {
            self.r += self.dr;
            0
        };
        self.m += self.dm + carry;
        if self.m >= self.p {
            self.m -= self.p;
            self.c += 1;
        }
        self.c += self.dc;
    }

    fn owner(&self) -> usize {
        self.m as usize
    }

    fn local(&self) -> usize {
        (self.c * self.k + self.r) as usize
    }
}

/// Walks `ranks` consecutive section ranks from the walks' current
/// position, appending each rank to its LHS owner's steps. `next[(j·p +
/// σ)·p + m]` is the next payload offset of operand `j`'s values from
/// node `σ` to node `m`; `rindex[m·p + σ]` is node `m`'s receive from `σ`.
fn walk_ranks(
    ranks: i64,
    lhs: &mut Walk,
    sides: &mut [Walk],
    next: &mut [usize],
    rindex: &[usize],
    nodes: &mut [NodeProgram],
) {
    let (p, nops) = (nodes.len(), sides.len());
    let mut cur = vec![(0usize, 0usize); nops];
    for t in 0..ranks {
        if t > 0 {
            lhs.step();
            sides.iter_mut().for_each(Walk::step);
        }
        let m = lhs.owner();
        for (j, (w, c)) in sides.iter().zip(cur.iter_mut()).enumerate() {
            let src = w.owner();
            *c = if src == m {
                (j, w.local())
            } else {
                let off = &mut next[(j * p + src) * p + m];
                *off += 1;
                (nops + rindex[m * p + src], *off - 1)
            };
        }
        nodes[m].push_rank(lhs.local(), &cur);
    }
}

/// The receive side of [`compile`]: every node's apply steps, from one
/// period of section ranks for all nodes at once, repeated `R` times,
/// then the tail. `sides` lists each operand's `(k, section)`.
fn plan_steps<T>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    sides: &[(i64, RegularSection)],
    mut next: Vec<usize>,
    rindex: &[usize],
    nodes: &mut [NodeProgram],
) -> Result<()> {
    let n = sec_a.count();
    if n == 0 {
        return Ok(());
    }
    // An `L` past `i64` is past every section: one period covers it.
    let mut l = rank_period(p, k_a, sec_a.s)?;
    for (k, sec) in sides {
        l = numth::lcm(l, rank_period(p, *k, sec.s)?).unwrap_or(i64::MAX);
    }
    let reps = if n / l >= 2 { n / l } else { 1 };
    let period = if reps >= 2 { l } else { n };
    let mut lhs = Walk::at(p, k_a, sec_a, 0);
    let mut walks: Vec<Walk> = sides.iter().map(|(k, s)| Walk::at(p, *k, s, 0)).collect();
    let base = next.clone();
    walk_ranks(period, &mut lhs, &mut walks, &mut next, rindex, nodes);
    if reps >= 2 {
        // Rank `L` exists, so each delta is the difference of two real
        // local addresses on one node: `L·s/p` itself may leave `i64`.
        let delta = |k: i64, sec: &RegularSection| {
            Walk::at(p, k, sec, l).local() - Walk::at(p, k, sec, 0).local()
        };
        let d_lhs = delta(k_a, sec_a);
        let d_ops: Vec<usize> = sides.iter().map(|(k, s)| delta(*k, s)).collect();
        let (nops, pu) = (sides.len(), nodes.len());
        for (m, node) in nodes.iter_mut().enumerate() {
            let NodeProgram {
                steps,
                streams,
                recvs,
                ..
            } = node;
            for (i, step) in steps.iter_mut().enumerate() {
                let ss = &mut streams[i * nops..(i + 1) * nops];
                step.delta = d_lhs;
                for (j, s) in ss.iter_mut().enumerate() {
                    s.delta = if s.buf < nops {
                        d_ops[j]
                    } else {
                        let pair = (j * pu + recvs[s.buf - nops].src) * pu + m;
                        next[pair] - base[pair]
                    };
                }
                if step.len == 1 {
                    // One element per period: one strided run.
                    step.gap = step.delta;
                    ss.iter_mut().for_each(|s| s.gap = s.delta);
                    step.len = reps as usize;
                } else if step.delta == step.len * step.gap
                    && ss.iter().all(|s| s.delta == step.len * s.gap)
                {
                    step.len *= reps as usize;
                } else {
                    step.reps = reps as usize;
                }
            }
        }
        for (off, b) in next.iter_mut().zip(&base) {
            *off = b + (*off - b) * reps as usize;
        }
        let tail = n - reps * l;
        if tail > 0 {
            let mut lhs = Walk::at(p, k_a, sec_a, reps * l);
            let mut walks: Vec<Walk> = sides
                .iter()
                .map(|(k, s)| Walk::at(p, *k, s, reps * l))
                .collect();
            walk_ranks(tail, &mut lhs, &mut walks, &mut next, rindex, nodes);
        }
    }
    let nops = sides.len();
    for node in nodes.iter_mut() {
        for (i, step) in node.steps.iter_mut().enumerate() {
            let ss = &node.streams[i * nops..(i + 1) * nops];
            step.class = class_of::<T>(step.gap);
            step.unit = ss.iter().all(|s| s.gap == 1);
            if step.len >= 2 {
                node.seg_count += step.reps as u64;
                node.seg_elems += (step.len * step.reps) as u64;
            }
        }
        node.steps.shrink_to_fit();
        node.streams.shrink_to_fit();
    }
    Ok(())
}

/// Compiles the statement shape `A(sec_a) = f(ops…)` on a `(p, k_a)` LHS
/// layout into per-node fused epochs. `ops` lists each operand's
/// `(k, section)`; the per-operand comm schedules come from — and warm —
/// the process-wide cache. `_block` no longer changes the program; it
/// stays because the ledger and benches pass [`epoch_block_elems`].
pub fn compile<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    _block: usize,
) -> Result<FusedStatement<T>> {
    let _sp = bcag_trace::span("fuse.compile");
    let _t = bcag_trace::timed_span("fuse_compile_ns");
    let mut schedules = Vec::with_capacity(ops.len());
    for (k_b, sec_b) in ops {
        schedules.push(cache::schedule(
            p,
            k_a,
            sec_a,
            *k_b,
            sec_b,
            Method::Lattice,
            mode,
            kind,
        )?);
    }
    if sec_a.s <= 0 {
        return Err(BcagError::Precondition(
            "statements require an ascending LHS section; normalize first",
        ));
    }
    if p < 1 {
        return Err(BcagError::InvalidProcessorCount { p });
    }
    if k_a < 1 {
        return Err(BcagError::InvalidBlockSize { k: k_a });
    }
    usize::try_from(numth::mul(p, p)?).map_err(|_| BcagError::Overflow)?;
    let pu = p as usize;
    let mut nodes: Vec<NodeProgram> = (0..pu).map(|_| NodeProgram::default()).collect();
    // Send side, pair by pair: one physical message per (src, dst ≠ src),
    // every operand's period runs in operand order. `next` records where
    // each operand's values start in the pair's payload.
    let mut next = vec![0usize; ops.len() * pu * pu];
    let mut rindex = vec![0usize; pu * pu];
    for src in 0..pu {
        for dst in 0..pu {
            let mut send = SendPlan {
                dst,
                elements: 0,
                charges: Vec::new(),
                blocks: Vec::new(),
                runs: Vec::new(),
            };
            for (j, sched) in schedules.iter().enumerate() {
                let (s, d) = (src as i64, dst as i64);
                let n = sched.pair_len(s, d);
                nodes[src].moved += n as u64;
                if n == 0 || src == dst {
                    continue;
                }
                next[(j * pu + src) * pu + dst] = send.elements;
                send.elements += n;
                let runs = sched.transfer_runs(s, d).len();
                send.charges.push(wire::wire_size::<T>(runs, n) as u64);
                send.push_pair::<T>(j, &sched.pair_period(s, d));
                nodes[src].msgs += 1;
                nodes[src].nonlocal += n as u64;
            }
            if send.elements > 0 {
                rindex[dst * pu + src] = nodes[dst].recvs.len();
                nodes[dst].recvs.push(RecvPlan {
                    src,
                    len: send.elements,
                    charges: send.charges.clone(),
                });
                nodes[src].sends.push(send);
            }
        }
    }
    plan_steps::<T>(p, k_a, sec_a, ops, next, &rindex, &mut nodes)?;
    let program = FusedStatement {
        p,
        nops: ops.len(),
        nodes,
        elem: PhantomData,
    };
    bcag_trace::record("program_bytes", program.heap_bytes() as u64);
    Ok(program)
}

/// [`compile`] through the sharded plan cache: the program is built once
/// per (statement shape × element type × execution context) and shared.
/// `block` does not change the program and is not part of the key.
pub fn cached_program<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    block: usize,
) -> Result<Arc<FusedStatement<T>>> {
    cache::fused::<FusedStatement<T>>(p, k_a, sec_a, ops, mode, kind, || {
        compile::<T>(p, k_a, sec_a, ops, mode, kind, block).map(Arc::new)
    })
}

/// Executes `A(sec_a) = f(operand values…)` through the cached fused
/// program on an explicit transport — the entry point behind
/// [`crate::statement::assign_expr`]. Inside a multi-process session the
/// replicated run replaces the pool epoch (whatever `kind` says) and
/// malformed peer frames surface as errors.
pub fn assign_fused_on<T, F>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    operands: &[(&DistArray<T>, RegularSection)],
    f: F,
    kind: TransportKind,
) -> Result<()>
where
    T: PackValue,
    F: Fn(&[T]) -> T + Sync,
{
    run(a, sec_a, operands, Some(&f), kind)
}

/// Executes the copy `A(sec_a) = B(sec_b)` through the copy run of the
/// cached one-operand program (the program `assign_fused_on` with
/// `|v| v[0]` would compile) — the entry point behind
/// [`crate::statement::assign_array`] and redistribution.
pub fn assign_copy_on<T: PackValue>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    b: &DistArray<T>,
    sec_b: &RegularSection,
    kind: TransportKind,
) -> Result<()> {
    run(a, sec_a, &[(b, *sec_b)], None::<&NoBody<T>>, kind)
}

/// Whether every element `sec` touches is an index of an array of
/// `len` elements.
pub(crate) fn fits(sec: &RegularSection, len: i64) -> bool {
    let n = sec.normalized();
    n.count == 0 || (n.lo >= 0 && n.hi < len)
}

/// Validates a statement, fetches its cached program and runs it: the
/// replicated run inside a multi-process session, otherwise the pool
/// epoch — an expression when `f` is given, a copy when it is not.
fn run<T, F>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    operands: &[(&DistArray<T>, RegularSection)],
    f: Option<&F>,
    kind: TransportKind,
) -> Result<()>
where
    T: PackValue,
    F: Fn(&[T]) -> T + Sync + ?Sized,
{
    if sec_a.s <= 0 {
        return Err(BcagError::Precondition(
            "statements require an ascending LHS section; normalize first",
        ));
    }
    if !fits(sec_a, a.len()) {
        return Err(BcagError::Precondition(
            "the LHS section reaches outside its array",
        ));
    }
    for (b, sec_b) in operands {
        if b.p() != a.p() {
            return Err(BcagError::Precondition("operands must share the machine"));
        }
        if sec_b.count() != sec_a.count() {
            return Err(BcagError::Precondition("operand sections must conform"));
        }
        if !fits(sec_b, b.len()) {
            return Err(BcagError::Precondition(
                "an operand section reaches outside its array",
            ));
        }
    }
    let ops: Vec<(i64, RegularSection)> = operands.iter().map(|(b, s)| (b.k(), *s)).collect();
    let program = cached_program::<T>(a.p(), a.k(), sec_a, &ops, ExecMode::Batched, kind, 0)?;
    let arrays: Vec<&DistArray<T>> = operands.iter().map(|(b, _)| *b).collect();
    if let Some(session) = transport::proc::active() {
        return program.replicated(a, &arrays, f, &session);
    }
    match f {
        Some(f) => program.epoch(a, &arrays, Some(f), kind),
        None => program.copy(a, arrays[0], kind),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use bcag_harness::prop::{self, Config};
    use bcag_harness::rng::Rng;

    use super::*;
    use crate::comm::CommSchedule;
    use crate::transport::proc::{read_frame, session_reading as session_for, Frame, KIND_DATA};

    /// The elementwise body as the tests pass it: a trait object, so one
    /// variable can hold an expression body or none (a copy).
    type Apply<'f, T> = dyn Fn(&[T]) -> T + Sync + 'f;

    /// Every pair's gathered payload is the schedule's transfers in rank
    /// order — periods, repeats, flattened one-run periods and tails
    /// alike — at every gap class.
    #[test]
    fn gathers_expand_the_schedule_in_rank_order() {
        let gen = prop::from_fn(|rng: &mut Rng| {
            let p = rng.random_range(1..=4);
            let (k_a, k_b) = (rng.random_range(1..=9), rng.random_range(1..=9));
            let count = rng.random_range(0..=300);
            let (s_a, s_b) = (rng.random_range(1..=7), rng.random_range(1..=7));
            (p, k_a, k_b, count, s_a, s_b)
        });
        prop::check("fuse-gathers", &gen, |&(p, k_a, k_b, count, s_a, s_b)| {
            let sec = |s: i64| RegularSection::new(1, count * s, s).unwrap();
            let (sec_a, sec_b) = (sec(s_a), sec(s_b));
            let sched = CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
            let src_mem: Vec<i64> = (0..4000).collect();
            for src in 0..p {
                for dst in (0..p).filter(|&d| d != src) {
                    let mut send = SendPlan {
                        dst: dst as usize,
                        elements: 0,
                        charges: Vec::new(),
                        blocks: Vec::new(),
                        runs: Vec::new(),
                    };
                    send.push_pair::<i64>(0, &sched.pair_period(src, dst));
                    let mut got = Vec::new();
                    send.gather(&[&src_mem[..]], &mut got);
                    let want: Vec<i64> = sched.transfers(src, dst).map(|t| t.src_local).collect();
                    assert_eq!(got, want, "pair ({src}, {dst})");
                }
            }
        });
    }

    /// Every arity the apply walker specializes (fixed arrays for 0–3
    /// operands, the `Vec` fallback beyond) over every class, repeated and
    /// not, with unit and strided streams and an order-sensitive body:
    /// swapped or dropped operands would change the image.
    #[test]
    fn apply_walker_passes_operands_in_order() {
        let body = |v: &[i64]| v.iter().fold(7i64, |acc, x| acc * 31 + x);
        for nops in 0..=5usize {
            for gap in [1usize, 2, 3, 4, 5, 9] {
                for sgap in [1usize, 3] {
                    let bufs: Vec<Vec<i64>> = (0..nops as i64)
                        .map(|j| (0..256).map(|i| 1000 * (j + 1) + i).collect())
                        .collect();
                    let refs: Vec<&[i64]> = bufs.iter().map(Vec::as_slice).collect();
                    let steps = [
                        ApplyStep {
                            addr: 1,
                            gap,
                            class: class_of::<i64>(gap),
                            len: 6,
                            reps: 3,
                            delta: 6 * gap + 2,
                            unit: sgap == 1,
                        },
                        ApplyStep {
                            addr: 200,
                            gap: 1,
                            class: ShapeClass::Memcpy,
                            len: 4,
                            reps: 1,
                            delta: 0,
                            unit: sgap == 1,
                        },
                    ];
                    let streams: Vec<Stream> = (0..2)
                        .flat_map(|i| {
                            (0..nops).map(move |j| Stream {
                                buf: j,
                                at: 5 * j + 100 * i,
                                gap: sgap,
                                delta: 20 + j,
                            })
                        })
                        .collect();
                    let mut got = vec![-1i64; 256];
                    apply_steps(&mut got, &refs, &steps, &streams, nops, &body);
                    let mut want = vec![-1i64; 256];
                    for (i, step) in steps.iter().enumerate() {
                        for r in 0..step.reps {
                            for j in 0..step.len {
                                let args: Vec<i64> = streams[i * nops..(i + 1) * nops]
                                    .iter()
                                    .map(|s| refs[s.buf][s.at + r * s.delta + j * s.gap])
                                    .collect();
                                want[step.addr + r * step.delta + j * step.gap] = body(&args);
                            }
                        }
                    }
                    assert_eq!(got, want, "nops={nops} gap={gap} sgap={sgap}");
                }
            }
        }
    }

    /// [`compile`] as the executor runs it, on one transport.
    fn compiled<T: PackValue>(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        ops: &[(i64, RegularSection)],
        kind: TransportKind,
    ) -> FusedStatement<T> {
        compile::<T>(p, k_a, sec_a, ops, ExecMode::Batched, kind, 0).unwrap()
    }

    #[test]
    fn compiled_programs_are_cached_and_shared() {
        // A shape unlike anything else in the suite, so the first call
        // is a genuine build.
        fn cached<T: PackValue>(block: usize) -> Arc<FusedStatement<T>> {
            let sec_a = RegularSection::new(1, 1171, 26).unwrap();
            let ops = [(9i64, RegularSection::new(3, 1173, 26).unwrap())];
            let (batched, shm) = (ExecMode::Batched, TransportKind::Shm);
            cached_program::<T>(3, 11, &sec_a, &ops, batched, shm, block).unwrap()
        }
        let first = cached::<i64>(0);
        let second = cached::<i64>(0);
        assert!(Arc::ptr_eq(&first, &second));
        // A different element type is a distinct cache entry.
        let other = cached::<f64>(0);
        assert!(other.census() == first.census());
        // The block size no longer changes the program, so it shares it.
        assert!(Arc::ptr_eq(&first, &cached::<i64>(7)));
    }

    #[test]
    fn census_counts_structure() {
        let sec = RegularSection::new(0, 239, 1).unwrap();
        let prog = compiled::<i64>(4, 8, &sec, &[(3, sec)], TransportKind::Shm);
        let census = prog.census();
        assert!(census.sends > 0, "redistribution must send messages");
        assert_eq!(census.sends, census.recvs, "every send has a receiver");
        assert_eq!(census.send_blocks, census.sends, "one operand");
        assert!(census.apply_segments >= 4, "every node owns LHS elements");
        assert!(census.local_streams > 0, "some elements stay on their node");
    }

    /// The sequential global-index reference of `A(sec_a) = f(ops…)`
    /// (`f = None`: the copy of the single operand).
    fn oracle(
        a: &[i64],
        sec_a: &RegularSection,
        ops: &[(Vec<i64>, RegularSection)],
        f: Option<&Apply<'_, i64>>,
    ) -> Vec<i64> {
        let mut out = a.to_vec();
        for t in 0..sec_a.count() {
            let args: Vec<i64> = ops
                .iter()
                .map(|(g, s)| g[(s.l + t * s.s) as usize])
                .collect();
            out[(sec_a.l + t * sec_a.s) as usize] = match f {
                Some(f) => f(&args),
                None => args[0],
            };
        }
        out
    }

    /// A redistributing statement sends exactly one physical message per
    /// (src, dst) pair with traffic, two operands' logical messages
    /// coalesced into it, and stays bit-exact as an expression and as a
    /// copy, in memory and on the wire.
    #[test]
    fn messages_are_one_envelope_per_pair() {
        let n = 600i64;
        let bg: Vec<i64> = (0..n).map(|i| 7 * i - 3).collect();
        let cg: Vec<i64> = (0..n).map(|i| i * i % 101).collect();
        let b = DistArray::from_global(3, 4, &bg).unwrap();
        let c = DistArray::from_global(3, 5, &cg).unwrap();
        let sec_a = RegularSection::new(0, 597, 3).unwrap();
        let sec_b = RegularSection::new(1, 399, 2).unwrap();
        let ops = [(4i64, sec_b), (5i64, sec_b)];
        let prog = compiled::<i64>(3, 7, &sec_a, &ops, TransportKind::Shm);
        for (src, node) in prog.nodes.iter().enumerate() {
            let dsts: Vec<usize> = node.sends.iter().map(|s| s.dst).collect();
            assert!(dsts.windows(2).all(|w| w[0] < w[1]), "{dsts:?}");
            assert!(!dsts.contains(&src), "no self-message");
        }
        let census = prog.census();
        assert_eq!(
            census.sends,
            2 * census.send_blocks,
            "two operands per pair"
        );
        let f = |v: &[i64]| v[0] * 2 + v[1];
        let want = oracle(
            &vec![0; n as usize],
            &sec_a,
            &[(bg.clone(), sec_b), (cg, sec_b)],
            Some(&f),
        );
        let want_copy = oracle(&vec![0; n as usize], &sec_a, &[(bg, sec_b)], None);
        let copy_prog = compiled::<i64>(3, 7, &sec_a, &ops[..1], TransportKind::Shm);
        for kind in TransportKind::ALL {
            let mut a = DistArray::new(3, 7, n, 0i64).unwrap();
            prog.execute(&mut a, &[&b, &c], f, pool::default_launch(), kind);
            assert_eq!(a.to_global(), want, "{kind:?}");
            let mut a = DistArray::new(3, 7, n, 0i64).unwrap();
            copy_prog.copy(&mut a, &b, kind);
            assert_eq!(a.to_global(), want_copy, "copy {kind:?}");
        }
    }

    /// A pair transfer far larger than the shm ring capacity is still one
    /// envelope: every node sends all of it before receiving anything,
    /// and a ring holds that one envelope whatever its size.
    #[test]
    fn large_sends_are_ring_safe() {
        let n = 40_000i64;
        let bg: Vec<i64> = (0..n).collect();
        let b = DistArray::from_global(2, 4, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let prog = compiled::<i64>(2, 16, &sec, &[(4, sec)], TransportKind::Shm);
        for node in &prog.nodes {
            assert_eq!(node.sends.len(), 1, "one message to the one peer");
            assert!(node.sends[0].elements > crate::transport::ring::RING_CAP);
        }
        for kind in TransportKind::ALL {
            let mut a = DistArray::new(2, 16, n, 0i64).unwrap();
            prog.execute(&mut a, &[&b], |v| v[0] + 1, pool::default_launch(), kind);
            let got = a.to_global();
            for (i, &v) in got.iter().enumerate() {
                assert_eq!(v, i as i64 + 1, "i={i} {kind:?}");
            }
        }
    }

    /// A same-layout statement sends nothing and reads every operand in
    /// place: one step per node when the section is dense, and a zero-
    /// operand fill needs no streams at all.
    #[test]
    fn local_epochs_read_operands_in_place() {
        let n = 1200i64;
        let bg: Vec<f64> = (0..n).map(|i| (i * 13 % 101) as f64).collect();
        let b = DistArray::from_global(2, 8, &bg).unwrap();
        for sec in [
            RegularSection::new(2, 1195, 3).unwrap(),
            RegularSection::new(0, n - 1, 1).unwrap(),
        ] {
            let prog = compiled::<f64>(2, 8, &sec, &[(8, sec)], TransportKind::Shm);
            let census = prog.census();
            assert_eq!(census.sends, 0, "same-layout copy never communicates");
            assert_eq!(census.local_streams, census.apply_segments);
            if sec.s == 1 {
                assert_eq!(census.apply_segments, 2, "one step per node");
            }
            let mut a = DistArray::new(2, 8, n, -1.0f64).unwrap();
            prog.execute(
                &mut a,
                &[&b],
                |v| v[0] * 0.5,
                pool::default_launch(),
                TransportKind::Shm,
            );
            let got = a.to_global();
            for i in 0..n {
                let want = if sec.contains(i) {
                    bg[i as usize] * 0.5
                } else {
                    -1.0
                };
                assert_eq!(got[i as usize].to_bits(), want.to_bits(), "i={i}");
            }
        }
        let sec = RegularSection::new(2, 1195, 3).unwrap();
        let prog = compiled::<f64>(2, 8, &sec, &[], TransportKind::Shm);
        assert_eq!(prog.census().local_streams, 0);
        let mut a = DistArray::new(2, 8, n, 0.0f64).unwrap();
        prog.execute(
            &mut a,
            &[],
            |_| 9.0,
            pool::default_launch(),
            TransportKind::Shm,
        );
        let got = a.to_global();
        for i in 0..n {
            let want = if sec.contains(i) { 9.0 } else { 0.0 };
            assert_eq!(got[i as usize], want, "i={i}");
        }
    }

    /// The strided shape whose LHS lies entirely on node 0 while its
    /// operand's source alternates element by element compiles to two
    /// strided steps — one read in place, one from node 1's payload —
    /// not one step per element.
    #[test]
    fn interleaved_sources_compile_to_two_strided_steps() {
        let n = 1 << 14;
        let count = (n - 1 - 16) / 8 + 1;
        let sec_a = RegularSection::new(3, 3 + (count - 1) * 8, 8).unwrap();
        let sec_b = RegularSection::new(5, 5 + (count - 1) * 8, 8).unwrap();
        let prog = compiled::<f64>(2, 4, &sec_a, &[(8, sec_b)], TransportKind::Shm);
        assert_eq!(prog.nodes[0].steps.len(), 2, "{:?}", prog.nodes[0].steps);
        assert!(prog.nodes[1].steps.is_empty());
        let bg: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let b = DistArray::from_global(2, 8, &bg).unwrap();
        let mut a = DistArray::new(2, 4, n, 0.0f64).unwrap();
        prog.execute(
            &mut a,
            &[&b],
            |v| v[0] + 1.0,
            pool::default_launch(),
            TransportKind::Shm,
        );
        let got = a.to_global();
        for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
            assert_eq!(got[ia as usize], bg[ib as usize] + 1.0, "A({ia})");
        }
    }

    /// A dense `k 16 ← 8` copy's program holds the same bytes at 64K and
    /// at 4M elements: its size follows the period, not the section.
    #[test]
    fn dense_copy_programs_hold_one_period() {
        let bytes = |n: i64| {
            let sec = RegularSection::new(0, n - 1, 1).unwrap();
            compiled::<f64>(2, 16, &sec, &[(8, sec)], TransportKind::Shm).heap_bytes()
        };
        let small = bytes(1 << 16);
        assert!(small > 0);
        assert_eq!(small, bytes(1 << 22));
    }

    /// The DATA frames node `src`'s compiled sends to `dst` produce.
    fn frames_from<T: PackValue>(
        prog: &FusedStatement<T>,
        operands: &[&DistArray<T>],
        src: usize,
        dst: usize,
    ) -> Vec<Frame> {
        let ops: Vec<&[T]> = operands.iter().map(|b| b.local(src as i64)).collect();
        prog.nodes[src]
            .sends
            .iter()
            .filter(|s| s.dst == dst)
            .map(|send| {
                let mut vals = Vec::new();
                send.gather(&ops, &mut vals);
                Frame {
                    kind: KIND_DATA,
                    src: src as u32,
                    dst: dst as u32,
                    body: encode_block(src, &vals),
                }
            })
            .collect()
    }

    /// Drives the replicated run of every node from in-memory sessions
    /// preloaded with the frames the other nodes' compiled sends produce:
    /// each process's full image must equal the oracle, and what it
    /// really sent must be exactly what its peers' plans expect.
    #[test]
    fn replicated_run_matches_the_oracle_for_every_node() {
        let gen = prop::from_fn(|rng: &mut Rng| {
            let p = rng.random_range(1..=4);
            let count = rng.random_range(0..=40);
            let nops = rng.random_range(0..=2) as usize;
            let mut secs = Vec::new();
            for _ in 0..=nops {
                let (lo, s) = (rng.random_range(0..=9), rng.random_range(1..=4));
                secs.push((rng.random_range(1..=9), lo, s));
            }
            let copy = nops == 1 && rng.random_bool(0.5);
            (p, count, secs, copy)
        });
        prop::check_with(
            &Config {
                cases: 48,
                ..Config::default()
            },
            "fuse-replicated",
            &gen,
            |(p, count, secs, copy)| {
                let (p, count) = (*p, *count);
                let sec = |&(_, lo, s): &(i64, i64, i64)| {
                    RegularSection::new(lo, lo + (count - 1) * s, s).unwrap()
                };
                let n = secs.iter().map(|&(_, lo, s)| lo + count * s).max().unwrap() + 3;
                let (k_a, sec_a) = (secs[0].0, sec(&secs[0]));
                let globals: Vec<(Vec<i64>, RegularSection)> = secs[1..]
                    .iter()
                    .enumerate()
                    .map(|(j, d)| ((0..n).map(|i| 100 * j as i64 + 3 * i).collect(), sec(d)))
                    .collect();
                let arrays: Vec<DistArray<i64>> = secs[1..]
                    .iter()
                    .zip(&globals)
                    .map(|(d, (g, _))| DistArray::from_global(p, d.0, g).unwrap())
                    .collect();
                let refs: Vec<&DistArray<i64>> = arrays.iter().collect();
                let ops: Vec<(i64, RegularSection)> =
                    secs[1..].iter().map(|d| (d.0, sec(d))).collect();
                let body = |v: &[i64]| v.iter().fold(7i64, |acc, x| acc * 3 + x);
                let f: Option<&Apply<'_, i64>> = if *copy { None } else { Some(&body) };
                let base: Vec<i64> = (0..n).map(|i| -i).collect();
                let want = oracle(&base, &sec_a, &globals, f);
                let prog = compiled::<i64>(p, k_a, &sec_a, &ops, TransportKind::Proc);
                let pu = p as usize;
                for me in 0..pu {
                    let inbound: Vec<Frame> = (0..pu)
                        .filter(|&src| src != me)
                        .flat_map(|src| frames_from(&prog, &refs, src, me))
                        .collect();
                    let (session, sink) = session_for(me, pu, &inbound);
                    let mut a = DistArray::from_global(p, k_a, &base).unwrap();
                    prog.replicated(&mut a, &refs, f, &session).unwrap();
                    assert_eq!(a.to_global(), want, "node {me} image");
                    let wrote = lock_clean(&sink).clone();
                    let mut r = &wrote[..];
                    let mut sent = Vec::new();
                    while let Some(frame) = read_frame(&mut r).unwrap() {
                        sent.push(frame);
                    }
                    let expect: Vec<Frame> = (0..pu)
                        .filter(|&dst| dst != me)
                        .flat_map(|dst| frames_from(&prog, &refs, me, dst))
                        .collect();
                    assert_eq!(sent, expect, "node {me} sends");
                }
            },
        );
    }

    /// Frames a peer process could corrupt — a missing source tag, a
    /// source outside the session, a tag naming the wrong node, or a
    /// payload length other than the compiled pair's — fail the
    /// replicated run with a protocol error instead of panicking, for
    /// copies and expressions alike. Payloads without a wire format are
    /// refused.
    #[test]
    fn hostile_frames_fail_the_replicated_run() {
        let n = 64i64;
        let bg: Vec<i64> = (0..n).collect();
        let b = DistArray::from_global(2, 3, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let prog = compiled::<i64>(2, 5, &sec, &[(3, sec)], TransportKind::Proc);
        let good = frames_from(&prog, &[&b], 1, 0);
        assert_eq!(good.len(), 1, "one message from node 1");
        let mut vals = Vec::new();
        decode_block::<i64>(&good[0].body, &mut vals).unwrap();
        let with_body = |body: Vec<u8>| Frame {
            body,
            ..good[0].clone()
        };
        let mut longer = vals.clone();
        longer.push(0);
        let hostile = [
            with_body(wire::encode::<i64>(&[], &vals)),
            with_body(vec![1, 2]),
            Frame {
                src: 9,
                ..good[0].clone()
            },
            with_body(encode_block(7, &vals)),
            with_body(encode_block(1, &vals[1..])),
            with_body(encode_block(1, &longer)),
        ];
        let double = |v: &[i64]| 2 * v[0];
        for frame in hostile {
            for f in [None, Some(&double as &Apply<'_, i64>)] {
                let (session, _) = session_for(0, 2, std::slice::from_ref(&frame));
                let mut a = DistArray::new(2, 5, n, 0i64).unwrap();
                let err = prog.replicated(&mut a, &[&b], f, &session).unwrap_err();
                assert!(matches!(err, BcagError::Protocol(_)), "{err}");
            }
        }
        let (session, _) = session_for(0, 2, &good);
        let mut a = DistArray::new(2, 5, n, 0i64).unwrap();
        prog.replicated(&mut a, &[&b], None::<&NoBody<i64>>, &session)
            .unwrap();
        assert_eq!(a.to_global(), bg);

        let words: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
        let wb = DistArray::from_global(2, 3, &words).unwrap();
        let sprog = compiled::<String>(2, 5, &sec, &[(3, sec)], TransportKind::Proc);
        let (session, _) = session_for(0, 2, &[]);
        let mut wa = DistArray::new(2, 5, n, String::new()).unwrap();
        assert!(matches!(
            sprog.replicated(&mut wa, &[&wb], None::<&NoBody<String>>, &session),
            Err(BcagError::Precondition(_))
        ));
    }
}
