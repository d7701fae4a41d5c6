//! The plan compiler: fuse a whole statement's schedule + pack + compute
//! into one specialized per-node epoch — the only code that moves array
//! data.
//!
//! The paper's point is that the access sequence, the communication sets,
//! and the contiguity classes of a statement are pure functions of
//! `(p, k, section)` parameters, never of array contents, so all of that
//! structure is computable ahead of execution.
//!
//! This module compiles a statement shape once into a [`FusedStatement`]:
//! a per-node program of **data-only steps** — same-node move, gather,
//! scatter, elementwise apply — each an affine walk (address, gap,
//! length) tagged with its [`ShapeClass`] ([`bcag_core::lower`]). The
//! epoch is **monomorphized over the statement body** `f`: one walker per
//! phase matches a step's class once and runs the step's loop with the
//! class's literal gap, which constant-folds through the [`PackValue`]
//! primitives, and the apply loop calls `f` inline on a fixed-size
//! argument array (a reused `Vec` only past three operands) — no
//! function pointer and no trait-object call per element. The executed
//! epoch does no per-statement schedule walk and exactly **one pool
//! dispatch** for the whole statement. Because the compiler sees
//! every operand at once, it also **coalesces messages by destination**:
//! all logical (operand, peer) messages of the statement merge into one
//! physical message per peer per epoch. Trace counters are still charged
//! per logical message at canonical wire size, so deterministic totals
//! equal the schedule's closed forms (`total_elements`,
//! `nonlocal_elements`, `nonempty_nonlocal_pairs`, `wire_size`).
//!
//! One compiled program runs three ways, sharing one implementation of
//! each per-node phase — stage, pack/send, drain/scatter, apply:
//!
//! * **Expression epoch** ([`FusedStatement::execute`]) —
//!   `A(sec_a) = f(B₀(sec₀), …)`: each node snapshots its pre-statement
//!   LHS image once per operand (which gives self-assignment its
//!   snapshot semantics), lands self-moves and inbound scatters in the
//!   snapshots, then applies `f` over its LHS segments.
//! * **Copy epoch** ([`assign_copy_on`]) — `A(sec_a) = B(sec_b)`:
//!   the one-operand program with self-moves and inbound scatters
//!   writing straight into the LHS image; no snapshot, no apply.
//!   Redistribution, [`crate::statement::assign_array`] and the shift
//!   intrinsics run this way.
//! * **Replicated run** — inside a `bcag spmd` node process, which holds
//!   every node's local image: the process sends its own row as real
//!   bytes over the session pipes, delivers every other `(src, dst)`
//!   block in process (the compiler gives sender and receiver identical
//!   split points), receives its own inbound blocks from the pipes and
//!   applies for every node. Only its own row is counted, so merged
//!   per-process traces equal in-process ones, and malformed inbound
//!   frames are [`BcagError::Protocol`] errors.
//!
//! Every run first checks that each section lies inside its array, so an
//! out-of-range statement is a [`BcagError::Precondition`] rather than a
//! node panic. While tracing, every node records one sample per epoch
//! into `fuse_stage_ns`, `fuse_send_ns` and `fuse_drain_ns` (the receive
//! loop, waits included), plus `fuse_apply_ns` for expressions, on its
//! own lane; the replicated run times only its own node, so merged
//! `--procs` histograms count exactly what an in-process run does.
//!
//! Programs are cached in the sharded plan cache ([`crate::cache::fused`])
//! next to the schedules they were compiled from, so single-flight builds
//! and LRU eviction cover them for free. Traversal order equals
//! [`RunPlan::for_each_segment`] order.
//!
//! Epochs whose working set spills L2 are **blocked**:
//! [`epoch_block_elems`] derives an L2-resident chunk size, physical
//! messages split into ≤-block-sized payloads at compile time (sender
//! and receiver derive identical split points from the same schedule,
//! so no wire metadata is added), and communication-free expression
//! epochs stage → move → apply one L2-sized address range at a time
//! instead of snapshotting the whole local image. The block size is part
//! of the fused cache key, so a program compiled unblocked (block `0`)
//! and its blocked twin are distinct entries.
//!
//! [`RunPlan::for_each_segment`]: bcag_core::runs::RunPlan::for_each_segment

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bcag_core::error::{BcagError, Result};
use bcag_core::lower::{lower_plan, ShapeClass};
use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_core::tune;

use crate::cache;
use crate::comm::wire::{self, PackValue};
use crate::comm::ExecMode;
use crate::darray::DistArray;
use crate::pool::{self, lock_clean, BufferArena, LaunchMode, NodeCtx};
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

/// 0 = no fused epoch ran yet, 1 = last epoch was unblocked, 2 = last
/// epoch ran L2-blocked — the flight recorder's `blk` column.
static LAST_BLOCKED: AtomicU8 = AtomicU8::new(0);

pub(crate) fn note_blocked(blocked: bool) {
    LAST_BLOCKED.store(if blocked { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether the most recent fused epoch on this process ran L2-blocked;
/// `None` before any fused epoch executed.
pub fn last_blocked() -> Option<bool> {
    match LAST_BLOCKED.load(Ordering::Relaxed) {
        1 => Some(false),
        2 => Some(true),
        _ => None,
    }
}

/// Transfer block size (in elements) for a statement whose LHS section
/// is `sec_a`: the L2-residency cap of [`tune::block_elems_for`], zero
/// (unblocked) when the statement's working set fits. The value feeds
/// [`compile`] and is part of the fused cache key
/// ([`crate::cache::fused`]), so test-local L2 overrides never share
/// compiled programs.
pub fn epoch_block_elems<T: PackValue>(sec_a: &RegularSection) -> usize {
    tune::block_elems_for(
        sec_a.count() as u64,
        std::mem::size_of::<T>(),
        tune::l2_bytes(),
    )
}

/// Upper bound on the number of message blocks one directed (src, dst)
/// pair may split into per epoch — half the shm fabric's per-pair SPSC
/// ring capacity, so an epoch's entire blocked send phase fits in the
/// ring and a send never has to wait for the peer (which is itself
/// still sending) to drain it. [`compile`] widens a pair's block size
/// past the L2 target rather than exceed this count.
const MAX_BLOCKS_PER_PEER: usize = crate::transport::ring::RING_CAP / 2;

/// Runs `$body` with `$g` bound to a step's gap: the literal gap of a
/// specialized [`ShapeClass`], which constant-folds into the step's loop
/// and through the [`PackValue`] primitives, or the runtime `$gap` for
/// [`ShapeClass::Wide`]. Every phase walker dispatches through this
/// once per step, so the compiled steps stay plain data.
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
fn class_of<T>(gap: i64) -> ShapeClass {
    ShapeClass::of_gap_for(gap, std::mem::size_of::<T>())
}

/// One same-node transfer run: `len` elements from `src, src + sgap, …`
/// to `dst, dst + dgap, …`.
struct MoveStep {
    dst: usize,
    dgap: usize,
    dclass: ShapeClass,
    src: usize,
    sgap: usize,
    sclass: ShapeClass,
    len: usize,
}

/// One gather segment of an outgoing message, reading from operand
/// `op`'s local memory.
struct GatherStep {
    op: usize,
    addr: usize,
    gap: usize,
    class: ShapeClass,
    len: usize,
}

/// One ≤-block-sized chunk of an outgoing physical message: the gather
/// segments whose packed payload this chunk carries. Unblocked plans
/// have exactly one block per peer.
struct SendBlock {
    elements: usize,
    gathers: Vec<GatherStep>,
}

/// The outgoing traffic from this node to `dst`: every operand's
/// transfers, packed back to back in operand order, split into
/// L2-blocked physical messages — one message (per block) per peer per
/// epoch. `charges` keeps one canonical wire size per *logical*
/// (operand, destination) message so trace totals equal the per-operand
/// schedules' closed forms; they are emitted once per peer, on the first
/// block.
struct SendPlan {
    dst: usize,
    charges: Vec<u64>,
    blocks: Vec<SendBlock>,
}

/// One scatter segment of an inbound message: where the next `len`
/// packed values (at `off` in the payload) land in operand `op`'s
/// staging buffer.
struct ScatterStep {
    op: usize,
    addr: usize,
    gap: usize,
    class: ShapeClass,
    len: usize,
    off: usize,
}

/// The expected inbound traffic from `src` — the schedule is global
/// knowledge, so the payload layout (operand order, then compiled run
/// order, split at the same block boundaries the sender derives) and
/// per-logical-message `charges` are compiled here and the wire carries
/// only values. `blocks[i]` scatters the `i`-th physical message from
/// `src`; each step's `off` is relative to that block's payload.
/// Per-producer FIFO on every transport (one SPSC ring per directed pair
/// in process, the router's per-source order across processes) keeps
/// block order deterministic.
struct RecvPlan {
    src: usize,
    charges: Vec<u64>,
    blocks: Vec<Vec<ScatterStep>>,
}

/// One LHS traversal segment of the owner-computes loop.
struct ApplyStep {
    addr: usize,
    gap: usize,
    class: ShapeClass,
    len: usize,
}

/// One L2-sized address range `[lo, hi)` of a blocked
/// communication-free epoch: the same-node moves (per operand) and
/// apply segments clipped to the range, with staging-side addresses
/// rebased by `-lo`. The epoch stages, moves and applies one range at a
/// time, so the working set per range is `(operands + 1) × (hi - lo)`
/// elements instead of the whole local image. Bit-exact because ranges
/// partition the address space: each range's snapshot still reads
/// pre-statement values (earlier ranges wrote disjoint addresses), and
/// every apply address reads staging within its own range.
struct LocalBlock {
    lo: usize,
    hi: usize,
    moves: Vec<Vec<MoveStep>>,
    apply: Vec<ApplyStep>,
}

/// The compiled epoch of one node: every data-movement and compute step
/// of the whole statement as plain data, plus the precomputed trace
/// counter totals the epoch charges (the per-operand schedules' own-row
/// totals, summed).
struct NodeProgram {
    /// Same-node transfer runs, per operand.
    self_moves: Vec<Vec<MoveStep>>,
    /// Outgoing physical messages, one per destination with traffic.
    sends: Vec<SendPlan>,
    /// Expected inbound physical messages, one per source with traffic.
    recvs: Vec<RecvPlan>,
    /// Owner-computes traversal segments.
    apply: Vec<ApplyStep>,
    /// L2-blocked ranges for communication-free epochs (empty when the
    /// node communicates or the program is unblocked); when non-empty,
    /// the expression epoch runs these instead of `self_moves` + `apply`,
    /// which are still compiled for the copy and replicated runs and so
    /// [`FusedStatement::census`] stays blocking-independent.
    local_blocks: Vec<LocalBlock>,
    /// Total outgoing transfers (all destinations, self included).
    moved: u64,
    /// Non-empty non-self destinations (messages really sent).
    msgs: u64,
    /// Elements leaving this node.
    nonlocal: u64,
    /// Coalesced (multi-element) outgoing runs.
    seg_count: u64,
    /// Elements covered by those coalesced runs.
    seg_elems: u64,
}

/// Bytes of the source-node routing tag appended to wire-encoded fused
/// message blocks (see [`encode_block`]).
const WIRE_TAG_BYTES: usize = 4;

/// A whole statement `A(sec_a) = f(B₀(sec₀), …)` compiled to per-node
/// epochs: built once per statement shape by [`compile`], cached in the
/// sharded plan cache, executed many times by [`FusedStatement::execute`].
pub struct FusedStatement<T: PackValue> {
    p: i64,
    nodes: Vec<NodeProgram>,
    /// Whether any node's epoch is L2-blocked (chunked messages or
    /// blocked local ranges) — drives the `tune_decision_blocked`
    /// counter and the flight recorder's blocked flag.
    blocked: bool,
    /// The element type the steps' classes were chosen for.
    elem: PhantomData<T>,
}

/// Structural summary of a compiled [`FusedStatement`] — totals over all
/// nodes, for `bcag stats` and planning tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuseCensus {
    /// Outgoing messages compiled across all nodes and operands.
    pub sends: usize,
    /// Inbound message plans compiled across all nodes.
    pub recvs: usize,
    /// Same-node transfer runs compiled across all nodes and operands.
    pub self_moves: usize,
    /// Owner-computes traversal segments across all nodes.
    pub apply_segments: usize,
    /// Physical message blocks compiled across all nodes — equals the
    /// physical message count when unblocked, larger when L2-chunked.
    pub send_blocks: usize,
    /// L2-blocked local epoch ranges compiled across all nodes.
    pub local_blocks: usize,
}

impl<T: PackValue> FusedStatement<T> {
    /// Structural totals of the compiled program. `sends`/`recvs` count
    /// *logical* (operand, peer) messages — the schedules' unit — even
    /// though the fused epoch coalesces them into one physical message
    /// per peer.
    pub fn census(&self) -> FuseCensus {
        let mut c = FuseCensus::default();
        for n in &self.nodes {
            c.sends += n.sends.iter().map(|s| s.charges.len()).sum::<usize>();
            c.recvs += n.recvs.iter().map(|r| r.charges.len()).sum::<usize>();
            c.self_moves += n.self_moves.iter().map(Vec::len).sum::<usize>();
            c.apply_segments += n.apply.len();
            c.send_blocks += n.sends.iter().map(|s| s.blocks.len()).sum::<usize>();
            c.local_blocks += n.local_blocks.len();
        }
        c
    }

    /// Runs the expression epoch: one pool dispatch executes stage →
    /// pack/send → drain/scatter → apply for the whole statement, with
    /// the apply loop monomorphized over `f`.
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
    /// program: self-moves and inbound scatters write straight into the
    /// LHS image — no staging snapshot, no apply phase.
    pub(crate) fn copy(&self, a: &mut DistArray<T>, b: &DistArray<T>, kind: TransportKind) {
        assert!(
            self.nodes.iter().all(|n| n.self_moves.len() == 1),
            "a copy runs a one-operand program"
        );
        self.epoch(a, &[b], None::<&NoBody<T>>, kind);
    }

    /// Epoch-level bookkeeping: the flight recorder's blocking note and,
    /// when `counted`, the once-per-statement counters.
    fn note_epoch(&self, counted: bool) {
        note_blocked(self.blocked);
        if counted {
            bcag_trace::count("fused_epochs", 1);
            if self.blocked && bcag_trace::enabled() {
                bcag_trace::count("tune_decision_blocked", 1);
            }
        }
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
        self.note_epoch(true);
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
    /// every other `(src, dst)` block is delivered in process with
    /// `nodes[src]`'s send block and `nodes[dst]`'s matching receive
    /// block, whose split points the compiler made identical. Only the
    /// own row is counted and timed (and the once-per-statement counters
    /// only on node 0), so merged per-process traces equal an in-process
    /// run's.
    fn replicated<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: Option<&F>,
        session: &transport::proc::Session,
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
        self.note_epoch(me == 0);
        let _node = bcag_trace::span("fuse.epoch.node");
        let copy = f.is_none();
        let ops_of =
            |n: usize| -> Vec<&[T]> { operands.iter().map(|b| b.local(n as i64)).collect() };
        let mut arena = BufferArena::default();
        let locals = a.locals_mut();
        let mut stagings: Vec<Vec<Vec<T>>> = Vec::with_capacity(p);
        for (n, local) in locals.iter_mut().enumerate() {
            let t = PhaseTimer::start();
            stagings.push(self.nodes[n].stage(local, &ops_of(n), copy, &mut arena));
            if n == me {
                t.record("fuse_stage_ns");
            }
        }
        self.nodes[me].count_row::<T>();
        // Own row first, so peers blocked on it progress, then every
        // other row; inbound blocks of this node arrive from the pipes.
        let mut vals: Vec<T> = Vec::new();
        for src in std::iter::once(me).chain((0..p).filter(|&n| n != me)) {
            let t = PhaseTimer::start();
            let ops = ops_of(src);
            for send in self.nodes[src].sends.iter().filter(|s| s.dst != me) {
                let plan = self.nodes[send.dst]
                    .recvs
                    .iter()
                    .find(|r| r.src == src)
                    .expect("every compiled send has a matching receive");
                for (bi, blk) in send.blocks.iter().enumerate() {
                    vals.clear();
                    blk.gather(&ops, &mut vals);
                    if src == me {
                        if bi == 0 {
                            send.charge();
                        }
                        session.send_data(send.dst, encode_block(me, &vals));
                    }
                    let targets = targets(&mut stagings[send.dst], &mut locals[send.dst], copy);
                    scatter(&plan.blocks[bi], &vals, targets);
                }
            }
            if src == me {
                t.record("fuse_send_ns");
            }
        }
        let t = PhaseTimer::start();
        let mut wait_ns = 0u64;
        for plan in &self.nodes[me].recvs {
            for (bi, steps) in plan.blocks.iter().enumerate() {
                let bytes = timed_recv(&mut wait_ns, || session.recv_from(plan.src))?;
                if bi == 0 {
                    plan.charge();
                }
                vals.clear();
                if decode_block(&bytes, &mut vals)? != plan.src {
                    return Err(BcagError::Protocol(
                        "fused block source tag disagrees with its frame",
                    ));
                }
                if vals.len() != block_len(steps) {
                    return Err(BcagError::Protocol(
                        "fused block size disagrees with its compiled plan",
                    ));
                }
                scatter(
                    steps,
                    &vals,
                    targets(&mut stagings[me], &mut locals[me], copy),
                );
            }
        }
        t.record("fuse_drain_ns");
        bcag_trace::count("recv_wait_ns", wait_ns);
        if let Some(f) = f {
            for (n, (local, st)) in locals.iter_mut().zip(&stagings).enumerate() {
                let t = PhaseTimer::start();
                apply_steps(local, st, &self.nodes[n].apply, f);
                if n == me {
                    t.record("fuse_apply_ns");
                }
            }
        }
        Ok(())
    }
}

/// The body type parameter of a copy run. A copy has no body — its `f`
/// is always `None` — so no function of this type is ever called.
type NoBody<T> = fn(&[T]) -> T;

/// Wall clock of one epoch phase. It runs only while tracing, so a
/// disabled epoch pays one relaxed load per phase.
struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    fn start() -> PhaseTimer {
        PhaseTimer(bcag_trace::enabled().then(Instant::now))
    }

    /// Nanoseconds since `start`; 0 when tracing was off.
    fn ns(&self) -> u64 {
        self.0.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
    }

    /// Records the time since `start` as one sample of the histogram
    /// `name` and returns it; records nothing when tracing was off.
    fn record(&self, name: &'static str) -> u64 {
        let ns = self.ns();
        if self.0.is_some() {
            bcag_trace::record(name, ns);
        }
        ns
    }
}

/// Where inbound payloads land: the per-operand staging snapshots of an
/// expression run, or — in a copy run, which has one operand and no
/// snapshot — the LHS image itself.
fn targets<'a, T>(
    stagings: &'a mut [Vec<T>],
    local_a: &'a mut Vec<T>,
    copy: bool,
) -> &'a mut [Vec<T>] {
    if copy {
        std::slice::from_mut(local_a)
    } else {
        stagings
    }
}

/// Runs one blocking receive, charging its wait to `wait_ns` and to the
/// `recv_wait_ns` histogram (one sample per received block).
fn timed_recv<R>(wait_ns: &mut u64, recv: impl FnOnce() -> R) -> R {
    let t = PhaseTimer::start();
    let got = recv();
    *wait_ns += t.record("recv_wait_ns");
    got
}

/// Move walker: applies same-node transfer runs from `src` into `dst`,
/// with both gaps folded for the specialized class pairs.
fn run_moves<T: PackValue>(dst: &mut [T], src: &[T], moves: &[MoveStep]) {
    for mv in moves {
        with_gap!(mv.sclass, mv.sgap, |sg| with_gap!(
            mv.dclass,
            mv.dgap,
            |dg| {
                if sg == 1 && dg == 1 {
                    dst[mv.dst..mv.dst + mv.len].clone_from_slice(&src[mv.src..mv.src + mv.len]);
                } else {
                    for j in 0..mv.len {
                        dst[mv.dst + j * dg] = src[mv.src + j * sg].clone();
                    }
                }
            }
        ))
    }
}

/// Stage phase of an expression run: one snapshot of `image` per
/// operand, with that operand's same-node moves landed in it. Each
/// snapshot takes the arena buffer that best fits the image.
fn snapshot<T: PackValue>(
    image: &[T],
    ops: &[&[T]],
    moves: &[Vec<MoveStep>],
    arena: &mut BufferArena,
) -> Vec<Vec<T>> {
    ops.iter()
        .zip(moves)
        .map(|(b, moves)| {
            let mut st: Vec<T> = arena.take_fit(image.len());
            st.extend_from_slice(image);
            run_moves(&mut st, b, moves);
            st
        })
        .collect()
}

/// Scatter walker: lands one inbound block's payload in `targets[op]`.
fn scatter<T: PackValue>(steps: &[ScatterStep], vals: &[T], targets: &mut [Vec<T>]) {
    for sc in steps {
        let run = &vals[sc.off..sc.off + sc.len];
        with_gap!(sc.class, sc.gap, |g| T::write_run(
            &mut targets[sc.op],
            sc.addr,
            g,
            run
        ));
    }
}

/// Elements the sender's matching block carries.
fn block_len(steps: &[ScatterStep]) -> usize {
    steps.last().map_or(0, |s| s.off + s.len)
}

/// Apply phase: the owner-computes loop over the LHS segments, calling
/// `f` inline on the staged operand values in operand order — a
/// fixed-size argument array for up to three operands, one reused `Vec`
/// beyond that.
fn apply_steps<T, F>(local: &mut [T], stagings: &[Vec<T>], steps: &[ApplyStep], f: &F)
where
    T: PackValue,
    F: Fn(&[T]) -> T + ?Sized,
{
    match stagings {
        [] => apply_fixed(local, [], steps, f),
        [a] => apply_fixed(local, [&a[..]], steps, f),
        [a, b] => apply_fixed(local, [&a[..], &b[..]], steps, f),
        [a, b, c] => apply_fixed(local, [&a[..], &b[..], &c[..]], steps, f),
        _ => {
            let mut args: Vec<T> = Vec::with_capacity(stagings.len());
            for step in steps {
                with_gap!(step.class, step.gap, |g| {
                    for j in 0..step.len {
                        let at = step.addr + j * g;
                        args.clear();
                        args.extend(stagings.iter().map(|st| st[at].clone()));
                        local[at] = f(&args);
                    }
                })
            }
        }
    }
}

/// Apply walker for `N ≤ 3` operands: per segment, one class match and
/// one slice of the LHS image and of each staging, then a loop at the
/// class's literal gap that passes `f` an `N`-element array.
fn apply_fixed<T, F, const N: usize>(
    local: &mut [T],
    stagings: [&[T]; N],
    steps: &[ApplyStep],
    f: &F,
) where
    T: PackValue,
    F: Fn(&[T]) -> T + ?Sized,
{
    for step in steps {
        with_gap!(step.class, step.gap, |g| {
            let seg = step.addr..step.addr + (step.len - 1) * g + 1;
            let ins = stagings.map(|st| &st[seg.clone()]);
            for (j, out) in local[seg].iter_mut().step_by(g).enumerate() {
                *out = f(&ins.map(|st| st[j * g].clone()));
            }
        })
    }
}

/// Wire form of one fused message block: the run-encoded payload with
/// no spans (the receiver's compiled plan carries the layout), then the
/// sender's node index, which routes the block on fabrics whose
/// envelopes do not say where they came from.
fn encode_block<T: PackValue>(src: usize, vals: &[T]) -> Vec<u8> {
    let mut bytes = wire::encode::<T>(&[], vals);
    bytes.extend_from_slice(&(src as u32).to_le_bytes());
    bytes
}

/// Decodes a block produced by [`encode_block`] into `vals` and returns
/// its source tag; malformed bytes are [`BcagError::Protocol`] errors.
fn decode_block<T: PackValue>(bytes: &[u8], vals: &mut Vec<T>) -> Result<usize> {
    let Some(tag_at) = bytes.len().checked_sub(WIRE_TAG_BYTES) else {
        return Err(BcagError::Protocol("fused block has no source tag"));
    };
    let mut spans = Vec::new();
    wire::decode_into(&bytes[..tag_at], &mut spans, vals)?;
    if !spans.is_empty() {
        return Err(BcagError::Protocol("fused block carries run spans"));
    }
    let mut tag = [0u8; WIRE_TAG_BYTES];
    tag.copy_from_slice(&bytes[tag_at..]);
    Ok(u32::from_le_bytes(tag) as usize)
}

impl SendBlock {
    /// Gather walker (the pack phase): gathers this block's payload from
    /// the sending node's operand images.
    fn gather<T: PackValue>(&self, ops: &[&[T]], out: &mut Vec<T>) {
        out.reserve(self.elements);
        for g in &self.gathers {
            with_gap!(g.class, g.gap, |gap| T::extend_run(
                out, ops[g.op], g.addr, gap, g.len
            ));
        }
    }
}

impl SendPlan {
    /// Charges the peer's logical messages at the canonical run-encoded
    /// size (span headers included even though fused blocks carry no
    /// spans), once per peer, so counts and totals are the schedules'
    /// on every backend.
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

    /// Stage phase: per-operand snapshots of the pre-statement LHS image
    /// for an expression run; for a copy run, same-node moves straight
    /// into the image (and no snapshots).
    fn stage<T: PackValue>(
        &self,
        local_a: &mut [T],
        ops: &[&[T]],
        copy: bool,
        arena: &mut BufferArena,
    ) -> Vec<Vec<T>> {
        if copy {
            run_moves(local_a, ops[0], &self.self_moves[0]);
            return Vec::new();
        }
        snapshot(local_a, ops, &self.self_moves, arena)
    }

    /// One node's pool epoch: stage, pack/send, drain/scatter, apply —
    /// or, for a blocked communication-free expression, the same phases
    /// one L2-sized address range at a time, recording the summed stage
    /// and apply times and empty send and drain phases, so every epoch
    /// samples the same phases whether or not it ran blocked.
    fn run_epoch<T, F>(
        &self,
        me: usize,
        ctx: &mut NodeCtx,
        local_a: &mut Vec<T>,
        ops: &[&[T]],
        f: Option<&F>,
    ) where
        T: PackValue,
        F: Fn(&[T]) -> T + Sync + ?Sized,
    {
        self.count_row::<T>();
        if let (Some(f), false) = (f, self.local_blocks.is_empty()) {
            bcag_trace::count("recv_wait_ns", 0);
            let (mut stage_ns, mut apply_ns) = (0u64, 0u64);
            for blk in &self.local_blocks {
                let t = PhaseTimer::start();
                let stagings = snapshot(&local_a[blk.lo..blk.hi], ops, &blk.moves, ctx.arena());
                stage_ns += t.ns();
                let t = PhaseTimer::start();
                apply_steps(&mut local_a[blk.lo..blk.hi], &stagings, &blk.apply, f);
                apply_ns += t.ns();
                stagings.into_iter().for_each(|st| ctx.put_buf(st));
            }
            bcag_trace::record("fuse_stage_ns", stage_ns);
            bcag_trace::record("fuse_send_ns", 0);
            bcag_trace::record("fuse_drain_ns", 0);
            bcag_trace::record("fuse_apply_ns", apply_ns);
            return;
        }
        let copy = f.is_none();
        let use_wire = ctx.serializes() && T::WIRE_BYTES.is_some();
        let t = PhaseTimer::start();
        let mut stagings = self.stage(local_a, ops, copy, ctx.arena());
        t.record("fuse_stage_ns");
        let t = PhaseTimer::start();
        for send in &self.sends {
            for (bi, blk) in send.blocks.iter().enumerate() {
                let mut vals: Vec<T> = ctx.arena().take_fit(blk.elements);
                blk.gather(ops, &mut vals);
                if bi == 0 {
                    send.charge();
                }
                if use_wire {
                    let bytes = encode_block(me, &vals);
                    ctx.put_buf(vals);
                    ctx.send(send.dst, Box::new(bytes));
                } else {
                    // In memory the source rides beside the values; the
                    // layout is compiled into the receiver's plan.
                    ctx.send(send.dst, Box::new((me, vals)));
                }
            }
        }
        t.record("fuse_send_ns");
        // Drain phase: a counted inbox loop routed by source, since
        // inbound order across sources is nondeterministic. Blocks from
        // one source arrive in send order, so a per-source cursor
        // selects each block's scatter plan.
        let t = PhaseTimer::start();
        let mut wait_ns = 0u64;
        let mut next_blk = vec![0usize; self.recvs.len()];
        let total_blocks: usize = self.recvs.iter().map(|r| r.blocks.len()).sum();
        for _ in 0..total_blocks {
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
            let pi = self
                .recvs
                .iter()
                .position(|r| r.src == src)
                .expect("inbound message matches a compiled recv plan");
            let plan = &self.recvs[pi];
            let bi = next_blk[pi];
            next_blk[pi] += 1;
            if bi == 0 {
                plan.charge();
            }
            scatter(
                &plan.blocks[bi],
                &vals,
                targets(&mut stagings, local_a, copy),
            );
            ctx.put_buf(vals);
        }
        t.record("fuse_drain_ns");
        bcag_trace::count("recv_wait_ns", wait_ns);
        if let Some(f) = f {
            let t = PhaseTimer::start();
            apply_steps(local_a, &stagings, &self.apply, f);
            t.record("fuse_apply_ns");
        }
        stagings.into_iter().for_each(|st| ctx.put_buf(st));
    }
}

/// Appends one gather run to `plan`, splitting it across ≤`cap`-element
/// message blocks. `cur` tracks the open block's fill and persists
/// across runs and operands, so block boundaries depend only on the
/// compiled run sequence — which sender and receiver share.
fn push_send_run(
    plan: &mut SendPlan,
    cur: &mut usize,
    cap: usize,
    op: usize,
    mut addr: usize,
    gap: usize,
    class: ShapeClass,
    mut len: usize,
) {
    while len > 0 {
        if plan.blocks.is_empty() || *cur == cap {
            plan.blocks.push(SendBlock {
                elements: 0,
                gathers: Vec::new(),
            });
            *cur = 0;
        }
        let take = len.min(cap - *cur);
        let blk = plan.blocks.last_mut().expect("block ensured above");
        blk.gathers.push(GatherStep {
            op,
            addr,
            gap,
            class,
            len: take,
        });
        blk.elements += take;
        *cur += take;
        addr += gap * take;
        len -= take;
    }
}

/// The receiver-side twin of [`push_send_run`]: same cap, same run
/// sequence, therefore the same split points — each block's scatter
/// offsets restart at zero because each block is its own payload.
fn push_recv_run(
    plan: &mut RecvPlan,
    cur: &mut usize,
    cap: usize,
    op: usize,
    mut addr: usize,
    gap: usize,
    class: ShapeClass,
    mut len: usize,
) {
    while len > 0 {
        if plan.blocks.is_empty() || *cur == cap {
            plan.blocks.push(Vec::new());
            *cur = 0;
        }
        let take = len.min(cap - *cur);
        plan.blocks
            .last_mut()
            .expect("block ensured above")
            .push(ScatterStep {
                op,
                addr,
                gap,
                class,
                len: take,
                off: *cur,
            });
        *cur += take;
        addr += gap * take;
        len -= take;
    }
}

/// Clips an affine address walk `base + j * gap, j in 0..len` to the
/// half-open range `[lo, hi)`: returns the first index and the clipped
/// length, or `None` when the walk misses the range.
fn clip_walk(base: usize, gap: usize, len: usize, lo: usize, hi: usize) -> Option<(usize, usize)> {
    if len == 0 || base >= hi {
        return None;
    }
    let gap = gap.max(1);
    let j0 = if base >= lo {
        0
    } else {
        (lo - base).div_ceil(gap)
    };
    if j0 >= len || base + j0 * gap >= hi {
        return None;
    }
    let j1 = ((hi - 1 - base) / gap).min(len - 1);
    Some((j0, j1 - j0 + 1))
}

/// Builds the L2-blocked ranges of a communication-free node program:
/// partitions the touched local address space into ≤`block`-element
/// ranges and clips every same-node move (by destination) and apply
/// segment to its range, rebasing staging-side addresses by `-lo`.
fn local_blocks_for(prog: &NodeProgram, block: usize) -> Vec<LocalBlock> {
    let mut extent = 0usize;
    for step in &prog.apply {
        extent = extent.max(step.addr + (step.len - 1) * step.gap + 1);
    }
    for mv in prog.self_moves.iter().flatten() {
        extent = extent.max(mv.dst + (mv.len - 1) * mv.dgap + 1);
    }
    if extent <= block {
        return Vec::new();
    }
    let mut blocks = Vec::with_capacity(extent.div_ceil(block));
    let mut lo = 0usize;
    while lo < extent {
        let hi = (lo + block).min(extent);
        let moves = prog
            .self_moves
            .iter()
            .map(|op_moves| {
                op_moves
                    .iter()
                    .filter_map(|mv| {
                        clip_walk(mv.dst, mv.dgap, mv.len, lo, hi).map(|(j0, len)| MoveStep {
                            dst: mv.dst + j0 * mv.dgap - lo,
                            src: mv.src + j0 * mv.sgap,
                            len,
                            ..*mv
                        })
                    })
                    .collect()
            })
            .collect();
        let apply = prog
            .apply
            .iter()
            .filter_map(|step| {
                clip_walk(step.addr, step.gap, step.len, lo, hi).map(|(j0, len)| ApplyStep {
                    addr: step.addr + j0 * step.gap - lo,
                    len,
                    ..*step
                })
            })
            .collect();
        blocks.push(LocalBlock {
            lo,
            hi,
            moves,
            apply,
        });
        lo = hi;
    }
    blocks
}

/// Compiles the statement shape `A(sec_a) = f(ops…)` on a `(p, k_a)` LHS
/// layout into per-node fused epochs. `ops` lists each operand's
/// `(k, section)`; planning artifacts (node plans, per-operand comm
/// schedules) come from — and warm — the process-wide cache, so the
/// locality analytics recorded at plan build time stay live under the
/// fused path. `block` caps physical message payloads and local epoch
/// ranges at that many elements (`0` = unblocked); callers derive it
/// from [`epoch_block_elems`].
pub fn compile<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    block: usize,
) -> Result<FusedStatement<T>> {
    let _sp = bcag_trace::span("fuse.compile");
    let _t = bcag_trace::timed_span("fuse_compile_ns");
    let plans = cache::plans(p, k_a, sec_a, Method::Lattice)?;
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
    let pu = p as usize;
    // Message payload cap in elements; shared by both sides of every
    // pair, so split points agree.
    let cap = if block == 0 { usize::MAX } else { block };
    let mut blocked = false;
    let mut nodes = Vec::with_capacity(pu);
    for me in 0..pu {
        let mut prog = NodeProgram {
            self_moves: Vec::with_capacity(ops.len()),
            sends: Vec::new(),
            recvs: Vec::new(),
            apply: Vec::new(),
            local_blocks: Vec::new(),
            moved: 0,
            msgs: 0,
            nonlocal: 0,
            seg_count: 0,
            seg_elems: 0,
        };
        // Per-peer accumulators: logical (operand, peer) messages merge
        // into one physical message per peer per block, packed — and
        // unpacked — in operand order, then compiled run order, so
        // sender and receiver derive the same payload layout
        // independently.
        let mut send_acc: Vec<SendPlan> = (0..pu)
            .map(|dst| SendPlan {
                dst,
                charges: Vec::new(),
                blocks: Vec::new(),
            })
            .collect();
        let mut send_cur = vec![0usize; pu];
        let mut recv_acc: Vec<RecvPlan> = (0..pu)
            .map(|src| RecvPlan {
                src,
                charges: Vec::new(),
                blocks: Vec::new(),
            })
            .collect();
        let mut recv_cur = vec![0usize; pu];
        // Per-peer payload caps: the global cap widened so no pair ever
        // splits into more than [`MAX_BLOCKS_PER_PEER`] envelopes. The
        // epoch protocol sends every block before receiving any, so on
        // the shm fabric's fixed-capacity SPSC rings an unbounded block
        // count could leave two peers spinning on mutually full rings;
        // keeping the per-pair envelope count under the ring capacity
        // means a send can never block, whatever the transfer size.
        // Sender and receiver widen from the same pair totals, so the
        // split points still agree.
        let mut send_cap = vec![cap; pu];
        let mut recv_cap = vec![cap; pu];
        if block > 0 {
            for peer in 0..pu {
                if peer == me {
                    continue;
                }
                let out: usize = schedules.iter().map(|s| s.pair(me, peer).len()).sum();
                send_cap[peer] = cap.max(out.div_ceil(MAX_BLOCKS_PER_PEER));
                let inn: usize = schedules.iter().map(|s| s.pair(peer, me).len()).sum();
                recv_cap[peer] = cap.max(inn.div_ceil(MAX_BLOCKS_PER_PEER));
            }
        }
        for (op, sched) in schedules.iter().enumerate() {
            let mut op_moves = Vec::new();
            for dst in 0..pu {
                let transfers = sched.pair(me, dst);
                prog.moved += transfers.len() as u64;
                let runs = sched.pair_runs(me, dst);
                for r in runs {
                    if r.len >= 2 {
                        prog.seg_count += 1;
                        prog.seg_elems += r.len as u64;
                    }
                }
                if dst == me {
                    for r in runs {
                        op_moves.push(MoveStep {
                            dst: r.dst_local as usize,
                            dgap: r.dgap as usize,
                            dclass: class_of::<T>(r.dgap),
                            src: r.src_local as usize,
                            sgap: r.sgap as usize,
                            sclass: class_of::<T>(r.sgap),
                            len: r.len as usize,
                        });
                    }
                    continue;
                }
                if transfers.is_empty() {
                    continue;
                }
                prog.msgs += 1;
                prog.nonlocal += transfers.len() as u64;
                let acc = &mut send_acc[dst];
                acc.charges
                    .push(wire::wire_size::<T>(runs.len(), transfers.len()) as u64);
                for r in runs {
                    push_send_run(
                        acc,
                        &mut send_cur[dst],
                        send_cap[dst],
                        op,
                        r.src_local as usize,
                        r.sgap as usize,
                        class_of::<T>(r.sgap),
                        r.len as usize,
                    );
                }
            }
            prog.self_moves.push(op_moves);
            for src in 0..pu {
                let transfers = sched.pair(src, me);
                if src == me || transfers.is_empty() {
                    continue;
                }
                let runs = sched.pair_runs(src, me);
                let acc = &mut recv_acc[src];
                acc.charges
                    .push(wire::wire_size::<T>(runs.len(), transfers.len()) as u64);
                for r in runs {
                    push_recv_run(
                        acc,
                        &mut recv_cur[src],
                        recv_cap[src],
                        op,
                        r.dst_local as usize,
                        r.dgap as usize,
                        class_of::<T>(r.dgap),
                        r.len as usize,
                    );
                }
            }
        }
        prog.sends = send_acc
            .into_iter()
            .filter(|s| !s.charges.is_empty())
            .collect();
        prog.recvs = recv_acc
            .into_iter()
            .filter(|r| !r.charges.is_empty())
            .collect();
        if plans[me].start.is_some() {
            for seg in lower_plan(&plans[me].runs) {
                prog.apply.push(ApplyStep {
                    addr: seg.addr as usize,
                    gap: seg.gap as usize,
                    class: class_of::<T>(seg.gap),
                    len: seg.len as usize,
                });
            }
        }
        if block > 0 && prog.sends.is_empty() && prog.recvs.is_empty() {
            prog.local_blocks = local_blocks_for(&prog, block);
        }
        blocked |= !prog.local_blocks.is_empty() || prog.sends.iter().any(|s| s.blocks.len() > 1);
        nodes.push(prog);
    }
    Ok(FusedStatement {
        p,
        nodes,
        blocked,
        elem: PhantomData,
    })
}

/// [`compile`] through the sharded plan cache: the program is built once
/// per (statement shape × element type × execution context × block size)
/// and shared.
pub fn cached_program<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    block: usize,
) -> Result<Arc<FusedStatement<T>>> {
    cache::fused::<FusedStatement<T>>(p, k_a, sec_a, ops, mode, kind, block, || {
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
    let block = epoch_block_elems::<T>(sec_a);
    let program = cached_program::<T>(a.p(), a.k(), sec_a, &ops, ExecMode::Batched, kind, block)?;
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
    use crate::transport::proc::{read_frame, session_reading as session_for, Frame, KIND_DATA};

    /// The elementwise body as the tests pass it: a trait object, so one
    /// variable can hold an expression body or none (a copy).
    type Apply<'f, T> = dyn Fn(&[T]) -> T + Sync + 'f;

    #[test]
    fn walkers_match_their_generic_forms() {
        let src: Vec<i64> = (0..64).collect();
        for gap in [1usize, 2, 3, 4, 7] {
            let class = class_of::<i64>(gap as i64);
            let blk = SendBlock {
                elements: 5,
                gathers: vec![GatherStep {
                    op: 1,
                    addr: 3,
                    gap,
                    class,
                    len: 5,
                }],
            };
            let mut got = Vec::new();
            blk.gather(&[&[][..], &src[..]], &mut got);
            let want: Vec<i64> = (0..5).map(|j| src[3 + j * gap]).collect();
            assert_eq!(got, want, "gather gap={gap}");

            let steps = [ScatterStep {
                op: 1,
                addr: 2,
                gap,
                class,
                len: 4,
                off: 1,
            }];
            let mut targets = vec![vec![0i64; 64]; 2];
            scatter(&steps, &want, &mut targets);
            let mut want_dst = vec![0i64; 64];
            for (j, v) in want[1..].iter().enumerate() {
                want_dst[2 + j * gap] = *v;
            }
            assert_eq!(targets[1], want_dst, "scatter gap={gap}");
            assert!(
                targets[0].iter().all(|&v| v == 0),
                "other operands untouched"
            );
        }
    }

    #[test]
    fn move_walker_covers_the_class_grid() {
        let src: Vec<i64> = (100..200).collect();
        for sgap in [1i64, 2, 3, 4, 6] {
            for dgap in [1i64, 2, 3, 4, 9] {
                let mv = MoveStep {
                    dst: 1,
                    dgap: dgap as usize,
                    dclass: class_of::<i64>(dgap),
                    src: 2,
                    sgap: sgap as usize,
                    sclass: class_of::<i64>(sgap),
                    len: 7,
                };
                let mut got = vec![0i64; 100];
                run_moves(&mut got, &src, &[mv]);
                let mut want = vec![0i64; 100];
                for j in 0..7usize {
                    want[1 + j * dgap as usize] = src[2 + j * sgap as usize];
                }
                assert_eq!(got, want, "sgap={sgap} dgap={dgap}");
            }
        }
    }

    /// Every arity the apply walker specializes (fixed arrays for 0–3
    /// operands, the `Vec` fallback beyond) over every class, with an
    /// order-sensitive body: swapped or dropped operands would change
    /// the image.
    #[test]
    fn apply_walker_passes_operands_in_order() {
        let body = |v: &[i64]| v.iter().fold(7i64, |acc, x| acc * 31 + x);
        for nops in 0..=5i64 {
            for gap in [1usize, 2, 3, 4, 5, 9] {
                let stagings: Vec<Vec<i64>> = (0..nops)
                    .map(|j| (0..64).map(|i| 1000 * (j + 1) + i).collect())
                    .collect();
                let steps = [
                    ApplyStep {
                        addr: 1,
                        gap,
                        class: class_of::<i64>(gap as i64),
                        len: 6,
                    },
                    ApplyStep {
                        addr: 60,
                        gap: 1,
                        class: ShapeClass::Memcpy,
                        len: 4,
                    },
                ];
                let mut got = vec![-1i64; 64];
                apply_steps(&mut got, &stagings, &steps, &body);
                let mut want = vec![-1i64; 64];
                for step in &steps {
                    for j in 0..step.len {
                        let at = step.addr + j * step.gap;
                        let args: Vec<i64> = stagings.iter().map(|st| st[at]).collect();
                        want[at] = body(&args);
                    }
                }
                assert_eq!(got, want, "nops={nops} gap={gap}");
            }
        }
    }

    /// [`compile`] as the executor runs it (batched), on one transport.
    fn compiled<T: PackValue>(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        ops: &[(i64, RegularSection)],
        kind: TransportKind,
        block: usize,
    ) -> FusedStatement<T> {
        compile::<T>(p, k_a, sec_a, ops, ExecMode::Batched, kind, block).unwrap()
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
        // A different block size is a distinct cache entry too: a
        // blocked/unblocked A/B must never reuse the other's program.
        let chunked = cached::<i64>(7);
        assert!(!Arc::ptr_eq(&first, &chunked));
    }

    #[test]
    fn census_counts_structure() {
        let sec = RegularSection::new(0, 239, 1).unwrap();
        let prog = compiled::<i64>(4, 8, &sec, &[(3, sec)], TransportKind::Shm, 0);
        let census = prog.census();
        assert!(census.sends > 0, "redistribution must send messages");
        assert_eq!(census.sends, census.recvs, "every send has a receiver");
        assert!(census.apply_segments >= 4, "every node owns LHS elements");
        assert!(
            census.send_blocks > 0,
            "unblocked sends still count one block each"
        );
        assert_eq!(
            census.local_blocks, 0,
            "unblocked programs compile no local ranges"
        );
    }

    #[test]
    fn blocked_messages_match_unblocked() {
        // k mismatch forces redistribution; tiny block caps split every
        // physical message into many chunks, which must stay bit-exact.
        let n = 600i64;
        let bg: Vec<i64> = (0..n).map(|i| 7 * i - 3).collect();
        let b = DistArray::from_global(3, 4, &bg).unwrap();
        let sec_a = RegularSection::new(0, 597, 3).unwrap();
        let sec_b = RegularSection::new(1, 399, 2).unwrap();
        let ops = vec![(b.k(), sec_b)];
        let run = |block: usize| {
            let prog = compiled::<i64>(3, 7, &sec_a, &ops, TransportKind::Shm, block);
            let mut a = DistArray::new(3, 7, n, 0i64).unwrap();
            prog.execute(
                &mut a,
                &[&b],
                |v| v[0] * 2 + 1,
                pool::default_launch(),
                TransportKind::Shm,
            );
            let mut c = DistArray::new(3, 7, n, 0i64).unwrap();
            prog.copy(&mut c, &b, TransportKind::Proc);
            (prog.census(), a.to_global(), c.to_global())
        };
        let (base_census, want, _) = run(0);
        let mut want_copy = vec![0i64; n as usize];
        for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
            want_copy[ia as usize] = bg[ib as usize];
        }
        for block in [0usize, 1, 5, 64] {
            let (census, got, copied) = run(block);
            assert_eq!(got, want, "block={block}");
            assert_eq!(copied, want_copy, "copy block={block}");
            assert_eq!(
                census.sends, base_census.sends,
                "logical messages are cap-independent"
            );
            if (1..64).contains(&block) {
                assert!(
                    census.send_blocks > base_census.send_blocks,
                    "small caps must chunk messages (block={block})"
                );
            }
        }
    }

    #[test]
    fn blocked_sends_are_ring_safe() {
        // A pair transfer far larger than the shm ring capacity at
        // block=1: the per-pair clamp must widen blocks so the whole
        // send phase fits in the ring — without it, two peers both
        // stuck in their send phase on mutually full rings would
        // deadlock before either reached its receive loop.
        let n = 4000i64;
        let bg: Vec<i64> = (0..n).collect();
        let b = DistArray::from_global(2, 4, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let ops = vec![(b.k(), sec)];
        let prog = compiled::<i64>(2, 16, &sec, &ops, TransportKind::Shm, 1);
        for node in &prog.nodes {
            for send in &node.sends {
                assert!(send.blocks.len() > 1, "the transfer must still chunk");
                assert!(
                    send.blocks.len() <= MAX_BLOCKS_PER_PEER,
                    "per-pair envelope count must stay under the ring capacity, got {}",
                    send.blocks.len()
                );
            }
        }
        let mut a = DistArray::new(2, 16, n, 0i64).unwrap();
        prog.execute(
            &mut a,
            &[&b],
            |v| v[0] + 1,
            pool::default_launch(),
            TransportKind::Shm,
        );
        let got = a.to_global();
        for i in 0..n as usize {
            assert_eq!(got[i], i as i64 + 1, "i={i}");
        }
    }

    #[test]
    fn blocked_local_epochs_match_unblocked() {
        // Same layout on both sides: every transfer is a self-move, so
        // blocking takes the local-epoch range path.
        let n = 1200i64;
        let bg: Vec<f64> = (0..n).map(|i| (i * 13 % 101) as f64).collect();
        let b = DistArray::from_global(2, 8, &bg).unwrap();
        let sec = RegularSection::new(2, 1195, 3).unwrap();
        let ops = vec![(8i64, sec)];
        let run = |block: usize| {
            let prog = compiled::<f64>(2, 8, &sec, &ops, TransportKind::Shm, block);
            let mut a = DistArray::new(2, 8, n, -1.0f64).unwrap();
            prog.execute(
                &mut a,
                &[&b],
                |v| v[0] * 0.5,
                pool::default_launch(),
                TransportKind::Shm,
            );
            (prog.census(), a.to_global())
        };
        let (base_census, want) = run(0);
        assert_eq!(base_census.sends, 0, "same-layout copy never communicates");
        for block in [16usize, 100, 4096] {
            let (census, got) = run(block);
            assert_eq!(got, want, "block={block}");
            if block < 512 {
                assert!(
                    census.local_blocks > 1,
                    "small caps must split the local epoch (block={block})"
                );
            }
        }
        // Zero-operand fills block too.
        let fill = |block: usize| {
            let prog = compiled::<f64>(2, 8, &sec, &[], TransportKind::Shm, block);
            let mut a = DistArray::new(2, 8, n, 0.0f64).unwrap();
            prog.execute(
                &mut a,
                &[],
                |_| 9.0,
                pool::default_launch(),
                TransportKind::Shm,
            );
            a.to_global()
        };
        assert_eq!(fill(0), fill(32));
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
            .flat_map(|s| &s.blocks)
            .map(|blk| {
                let mut vals = Vec::new();
                blk.gather(&ops, &mut vals);
                Frame {
                    kind: KIND_DATA,
                    src: src as u32,
                    dst: dst as u32,
                    body: encode_block(src, &vals),
                }
            })
            .collect()
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
            let block = *rng.choice(&[0usize, 1, 7]);
            let copy = nops == 1 && rng.random_bool(0.5);
            (p, count, secs, block, copy)
        });
        prop::check_with(
            &Config {
                cases: 48,
                ..Config::default()
            },
            "fuse-replicated",
            &gen,
            |(p, count, secs, block, copy)| {
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
                let prog = compiled::<i64>(p, k_a, &sec_a, &ops, TransportKind::Proc, *block);
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
    /// source outside the session, a tag naming the wrong node, or the
    /// wrong element count for the compiled block — fail the replicated
    /// run with a protocol error instead of panicking, for copies and
    /// expressions alike. Payloads without a wire format are refused.
    #[test]
    fn hostile_frames_fail_the_replicated_run() {
        let n = 64i64;
        let bg: Vec<i64> = (0..n).collect();
        let b = DistArray::from_global(2, 3, &bg).unwrap();
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let prog = compiled::<i64>(2, 5, &sec, &[(3, sec)], TransportKind::Proc, 0);
        let good = frames_from(&prog, &[&b], 1, 0);
        assert_eq!(good.len(), 1, "one block from node 1");
        let mut vals = Vec::new();
        decode_block::<i64>(&good[0].body, &mut vals).unwrap();
        let with_body = |body: Vec<u8>| Frame {
            body,
            ..good[0].clone()
        };
        let hostile = [
            with_body(wire::encode::<i64>(&[], &vals)),
            with_body(vec![1, 2]),
            Frame {
                src: 9,
                ..good[0].clone()
            },
            with_body(encode_block(7, &vals)),
            with_body(encode_block(1, &vals[1..])),
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
        let sprog = compiled::<String>(2, 5, &sec, &[(3, sec)], TransportKind::Proc, 0);
        let (session, _) = session_for(0, 2, &[]);
        let mut wa = DistArray::new(2, 5, n, String::new()).unwrap();
        assert!(matches!(
            sprog.replicated(&mut wa, &[&wb], None::<&NoBody<String>>, &session),
            Err(BcagError::Precondition(_))
        ));
    }
}
