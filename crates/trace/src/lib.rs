//! # bcag-trace — zero-dependency tracing and metrics
//!
//! The paper's contribution is a *cost* claim — `O(k + min(log s, log p))`
//! table construction, and node programs whose communication volume and
//! load balance drive the `cyclic(k)` trade-off. This crate records where
//! that time and traffic actually go inside a run, so perf work has a
//! shared measurement vocabulary instead of end-to-end wall clocks only.
//!
//! Model:
//!
//! * **Spans** — [`span`] returns an RAII guard; the enclosed region is
//!   timed with a monotonic [`Instant`] and recorded as a complete event
//!   (name, start, duration, nesting depth) on the current thread's lane.
//! * **Counters** — [`count`] adds to a named per-lane counter. The
//!   instrumented stack uses a fixed vocabulary (`basis_steps`,
//!   `table_entries`, `gcd_iters`, `solver_steps`, `messages_sent`,
//!   `elements_moved`, `elements_nonlocal`, `bytes_packed`,
//!   `elements_packed`, `recv_wait_ns`, `barrier_wait_ns`,
//!   `schedule_cache_hits`, `schedule_cache_misses`,
//!   `pool_buffer_reuses`); see
//!   `docs/ALGORITHM.md` for what each one measures.
//! * **Lanes** — events and counters are collected per thread. The SPMD
//!   machine runs its nodes on threads whose lanes are labeled
//!   `node-<m>`, and lends the dispatching thread to a `node-0` lane
//!   ([`lane_as`]) while it runs node 0, so a collected [`Trace`]
//!   contains per-node timelines, mirroring the paper's per-processor
//!   timing discipline.
//! * **On/off switch** — tracing is globally disabled by default. Every
//!   recording primitive first reads one relaxed [`AtomicBool`]; when
//!   disabled nothing else runs, so instrumented hot paths stay within
//!   noise of uninstrumented builds (asserted by
//!   `bcag-core/tests/trace_overhead.rs`).
//!
//! Collection is generation-checked: [`start`] clears the sink and bumps a
//! generation counter; guards that straddle a [`stop`] are discarded
//! rather than polluting the next session. [`capture`] wraps the whole
//! cycle and also serializes concurrent sessions in one process (the
//! switch and sink are process-global).
//!
//! * **Histograms** — [`record`] adds a sample to a named per-lane
//!   [`Histogram`] (HDR-style: power-of-two buckets with linear
//!   sub-buckets, ~3.1% bucket error); [`timed_span`] is the RAII form
//!   that records the guarded scope's duration in nanoseconds without
//!   producing a timeline event. Histograms merge exactly, so
//!   [`Trace::merged`] composes per-process distributions just like
//!   counters.
//! * **Gauges** — [`gauge`] samples an instantaneous value (queue depth,
//!   cache occupancy) with a timestamp; the Chrome export renders them as
//!   counter tracks over time.
//!
//! Export lives in [`export`]: a `bcag-trace/v2` summary (counter totals,
//! histogram percentiles, per-lane aggregates, max-over-nodes critical
//! path), the Chrome Trace Event format loadable by `chrome://tracing` /
//! Perfetto, and a Prometheus-style text exposition writer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod hist;

pub use hist::Histogram;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<Mutex<LaneData>>>> = Mutex::new(Vec::new());
static ANON_LANES: AtomicU64 = AtomicU64::new(0);
static TAGS: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());

/// Nanoseconds since the process-wide trace epoch (first use).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One completed span on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (static so the record path never allocates for names).
    pub name: &'static str,
    /// Start time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open time (0 = top-level on its lane).
    pub depth: u32,
}

/// One timestamped gauge sample on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Gauge name.
    pub name: &'static str,
    /// Sample time, nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Instantaneous value at that time.
    pub value: u64,
}

/// Mutable per-thread collection state.
struct LaneData {
    label: String,
    depth: u32,
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    samples: Vec<Sample>,
}

/// A lane as the current thread holds it: the generation it was
/// registered in, and its shared data.
type LaneRef = (u64, Arc<Mutex<LaneData>>);

thread_local! {
    /// The lane this thread records on for the current generation, if
    /// registered: its own, or one it is lent to ([`lane_as`]).
    static LANE: RefCell<Option<LaneRef>> = const { RefCell::new(None) };
    /// The lanes this thread has been lent to, by label.
    static LENT: RefCell<Vec<(String, LaneRef)>> = const { RefCell::new(Vec::new()) };
}

/// Registers a fresh, empty lane with the global sink.
fn register_lane(label: String) -> Arc<Mutex<LaneData>> {
    let lane = Arc::new(Mutex::new(LaneData {
        label,
        depth: 0,
        events: Vec::new(),
        counters: BTreeMap::new(),
        histograms: BTreeMap::new(),
        samples: Vec::new(),
    }));
    lock_clean(&REGISTRY).push(lane.clone());
    lane
}

/// Runs `f` on this thread's lane for the current generation, registering
/// a fresh lane with the global sink on first use. Only called from paths
/// already gated on [`enabled`], so disabled runs never touch the TLS.
fn with_lane<R>(f: impl FnOnce(&mut LaneData) -> R) -> R {
    let gen = GENERATION.load(Ordering::Acquire);
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = !matches!(&*slot, Some((g, _)) if *g == gen);
        if stale {
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| {
                    format!("thread-{}", ANON_LANES.fetch_add(1, Ordering::Relaxed))
                });
            *slot = Some((gen, register_lane(label)));
        }
        let (_, lane) = slot.as_ref().expect("lane registered above");
        let result = f(&mut lock_clean(lane));
        result
    })
}

/// Locks ignoring poisoning: a panicking instrumented test must not take
/// down every later tracing session in the process.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether tracing is currently recording. The recording primitives check
/// this themselves; instrumentation only needs it to skip *setup* work
/// (formatting a lane label, timing a wait) that would otherwise run on
/// the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a recording session: clears the sink and enables tracing.
pub fn start() {
    let mut reg = lock_clean(&REGISTRY);
    reg.clear();
    lock_clean(&TAGS).clear();
    GENERATION.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Attaches a session-level tag (e.g. `transport = shm`) to the trace
/// being recorded. Tags describe run configuration rather than events;
/// they land in the `bcag-trace/v1` summary. Setting a key again replaces
/// its value. No-op while tracing is disabled.
pub fn set_tag(key: &str, value: &str) {
    if !enabled() {
        return;
    }
    let mut tags = lock_clean(&TAGS);
    if let Some(slot) = tags.iter_mut().find(|(k, _)| k == key) {
        slot.1 = value.to_string();
    } else {
        tags.push((key.to_string(), value.to_string()));
    }
}

/// Stops recording and returns everything collected since [`start`].
/// Lanes are sorted by label (numeric-aware, so `node-2` < `node-10`).
pub fn stop() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    GENERATION.fetch_add(1, Ordering::Release);
    let tags = std::mem::take(&mut *lock_clean(&TAGS));
    let handles = std::mem::take(&mut *lock_clean(&REGISTRY));
    let mut lanes: Vec<Lane> = handles
        .into_iter()
        .map(|h| {
            let mut d = lock_clean(&h);
            Lane {
                label: std::mem::take(&mut d.label),
                events: std::mem::take(&mut d.events),
                counters: std::mem::take(&mut d.counters),
                histograms: std::mem::take(&mut d.histograms),
                samples: std::mem::take(&mut d.samples),
            }
        })
        .collect();
    lanes.sort_by(|a, b| natural_key(&a.label).cmp(&natural_key(&b.label)));
    Trace { lanes, tags }
}

/// Interns a string as `&'static str`. Span and counter names are static
/// in the record path; deserialization ([`export::from_json`]) has only
/// owned strings, so it leaks each *distinct* name once through this
/// registry. The set of span/counter names in the instrumented stack is a
/// small fixed vocabulary, so the leak is bounded.
pub fn intern(name: &str) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut set = lock_clean(&INTERNED);
    if let Some(s) = set.iter().find(|s| **s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    set.push(leaked);
    leaked
}

/// Splits a label into (text, number) runs so lane sorting treats embedded
/// integers numerically.
fn natural_key(s: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut text = String::new();
    let mut rest = s;
    while !rest.is_empty() {
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            let c = rest.chars().next().expect("nonempty");
            text.push(c);
            rest = &rest[c.len_utf8()..];
        } else {
            out.push((
                std::mem::take(&mut text),
                digits.parse().unwrap_or(u64::MAX),
            ));
            rest = &rest[digits.len()..];
        }
    }
    if !text.is_empty() {
        out.push((text, 0));
    }
    out
}

/// Serialization for whole sessions: [`capture`] holds this so two
/// concurrent captures (e.g. parallel tests in one binary) cannot
/// interleave on the process-global switch.
fn session_lock() -> MutexGuard<'static, ()> {
    static SESSION: Mutex<()> = Mutex::new(());
    lock_clean(&SESSION)
}

/// Runs `f` with tracing enabled and returns what it recorded, serializing
/// against other concurrent captures in this process.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let _guard = session_lock();
    start();
    let result = f();
    (result, stop())
}

/// Relabels the current thread's lane (the SPMD machine labels node
/// threads `node-<m>`). No-op while tracing is disabled.
pub fn set_lane_label(label: &str) {
    if !enabled() {
        return;
    }
    with_lane(|l| l.label = label.to_string());
}

/// RAII guard returned by [`lane_as`]; gives the thread its own lane
/// back on drop.
#[must_use = "the thread records on the lent lane only while the guard lives"]
pub struct LaneLoan {
    own: Option<Option<LaneRef>>,
}

/// Lends the current thread to the lane labeled `label` until the guard
/// drops: everything the thread records meanwhile (spans, counters,
/// histograms, gauges) lands on that lane, which is this thread's one
/// lane for `label` in the session. A span opened before the loan still
/// closes on the thread's own lane. The SPMD pool runs node 0 on the
/// dispatching thread this way, so node 0's work aggregates on a
/// `node-0` lane while the dispatch itself stays on the caller's lane.
/// No-op while tracing is disabled.
pub fn lane_as(label: &str) -> LaneLoan {
    if !enabled() {
        return LaneLoan { own: None };
    }
    let gen = GENERATION.load(Ordering::Acquire);
    let lane = LENT.with(|lent| {
        let mut lent = lent.borrow_mut();
        lent.retain(|(_, (g, _))| *g == gen);
        if let Some((_, (_, lane))) = lent.iter().find(|(l, _)| l == label) {
            return lane.clone();
        }
        let lane = register_lane(label.to_string());
        lent.push((label.to_string(), (gen, lane.clone())));
        lane
    });
    let own = LANE.with(|slot| slot.replace(Some((gen, lane))));
    LaneLoan { own: Some(own) }
}

impl Drop for LaneLoan {
    fn drop(&mut self) {
        if let Some(own) = self.own.take() {
            LANE.with(|slot| *slot.borrow_mut() = own);
        }
    }
}

/// Adds `delta` to the named counter on the current thread's lane.
/// A disabled call is one relaxed atomic load.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_lane(|l| *l.counters.entry(name).or_insert(0) += delta);
}

/// Adds `delta` to a counter on the lane currently labeled `label` (used
/// by the machine to credit each node's `barrier_wait_ns` after the join,
/// when only the launcher knows the maximum). Unknown labels are ignored.
pub fn count_on_lane(label: &str, name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    for lane in lock_clean(&REGISTRY).iter() {
        let mut d = lock_clean(lane);
        if d.label == label {
            *d.counters.entry(name).or_insert(0) += delta;
            return;
        }
    }
}

/// Records one sample into the named histogram on the current thread's
/// lane. A disabled call is one relaxed atomic load.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_lane(|l| l.histograms.entry(name).or_default().record(value));
}

/// Records a sample into a histogram on the lane currently labeled
/// `label` (the histogram analogue of [`count_on_lane`]: the machine
/// credits each node's barrier wait after the join, when only the
/// launcher knows the maximum). Unknown labels are ignored.
pub fn record_on_lane(label: &str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    for lane in lock_clean(&REGISTRY).iter() {
        let mut d = lock_clean(lane);
        if d.label == label {
            d.histograms.entry(name).or_default().record(value);
            return;
        }
    }
}

/// Merges a locally-built [`Histogram`] into the named histogram on the
/// current thread's lane (bulk form of [`record`]: analyses that build a
/// distribution off to the side fold it in with one call). A disabled
/// call is one relaxed atomic load.
#[inline]
pub fn record_hist(name: &'static str, h: &Histogram) {
    if !enabled() || h.is_empty() {
        return;
    }
    with_lane(|l| l.histograms.entry(name).or_default().merge(h));
}

/// Samples an instantaneous gauge value (queue depth, cache occupancy)
/// on the current thread's lane. A disabled call is one relaxed atomic
/// load.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let t_ns = now_ns();
    with_lane(|l| l.samples.push(Sample { name, t_ns, value }));
}

/// [`gauge`] for names built at runtime (per-shard occupancy gauges like
/// `schedule_cache_shard3_entries`): interns the name once, then samples
/// like any static gauge. A disabled call returns before formatting-time
/// costs matter to the caller, but the caller should still gate any
/// `format!` behind [`enabled`].
#[inline]
pub fn gauge_dyn(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    gauge(intern(name), value);
}

/// The current in-session total of a counter across all registered lanes
/// (0 while disabled). Lets always-on diagnostics (the flight recorder)
/// read live deltas without waiting for [`stop`].
pub fn counter_now(name: &str) -> u64 {
    if !enabled() {
        return 0;
    }
    lock_clean(&REGISTRY)
        .iter()
        .map(|lane| lock_clean(lane).counters.get(name).copied().unwrap_or(0))
        .sum()
}

/// RAII guard returned by [`timed_span`]; records the elapsed nanoseconds
/// into a histogram on drop (no timeline event).
#[must_use = "a timed_span measures the scope holding the guard"]
pub struct TimedSpan {
    open: Option<(&'static str, u64, Instant)>,
}

/// Times the guarded scope and records its duration (ns) into the named
/// histogram when the guard drops. Cheaper than [`span`] on hot paths
/// that only need the distribution, not the timeline. Disabled calls are
/// one relaxed atomic load; guards straddling a [`stop`] are discarded.
#[inline]
pub fn timed_span(name: &'static str) -> TimedSpan {
    if !enabled() {
        return TimedSpan { open: None };
    }
    let gen = GENERATION.load(Ordering::Acquire);
    TimedSpan {
        open: Some((name, gen, Instant::now())),
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        let Some((name, gen, t0)) = self.open.take() else {
            return;
        };
        if GENERATION.load(Ordering::Acquire) != gen || !enabled() {
            return;
        }
        let ns = t0.elapsed().as_nanos() as u64;
        with_lane(|l| l.histograms.entry(name).or_default().record(ns));
    }
}

/// RAII span guard returned by [`span`]; records a complete event on drop.
#[must_use = "a span measures the scope holding the guard"]
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    gen: u64,
    start_ns: u64,
    depth: u32,
}

/// Opens a span on the current thread's lane. When tracing is disabled
/// this is one relaxed atomic load and a `None` guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let gen = GENERATION.load(Ordering::Acquire);
    let depth = with_lane(|l| {
        let d = l.depth;
        l.depth += 1;
        d
    });
    Span {
        open: Some(OpenSpan {
            name,
            gen,
            start_ns: now_ns(),
            depth,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        // A stop()/start() while the guard was live: the lane this span
        // opened on is gone; recording now would resurrect stale state.
        if GENERATION.load(Ordering::Acquire) != open.gen || !enabled() {
            return;
        }
        let dur_ns = now_ns().saturating_sub(open.start_ns);
        with_lane(|l| {
            l.depth = l.depth.saturating_sub(1);
            l.events.push(Event {
                name: open.name,
                start_ns: open.start_ns,
                dur_ns,
                depth: open.depth,
            });
        });
    }
}

/// One thread's collected timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// Lane label (`main`, `node-3`, ...).
    pub label: String,
    /// Completed spans, in completion order.
    pub events: Vec<Event>,
    /// Counter totals accumulated on this lane.
    pub counters: BTreeMap<&'static str, u64>,
    /// Sample distributions recorded on this lane.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Timestamped gauge samples recorded on this lane.
    pub samples: Vec<Sample>,
}

impl Lane {
    /// Total busy time: the sum of top-level (depth 0) span durations.
    /// Nested spans are contained in their parents, so this never double
    /// counts.
    pub fn busy_ns(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| e.depth == 0)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// This lane's total for a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The node number for lanes labeled `node-<m>`.
    pub fn node_id(&self) -> Option<usize> {
        self.label.strip_prefix("node-")?.parse().ok()
    }

    /// This lane's histogram for a name, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// Per-span-name aggregate produced by [`Trace::span_rollup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total time inside these spans (children included).
    pub total_ns: u64,
    /// Time inside these spans minus time inside their nested children.
    pub self_ns: u64,
}

/// A completed recording session: one [`Lane`] per participating thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Lanes, sorted by label (numeric-aware).
    pub lanes: Vec<Lane>,
    /// Session-level configuration tags set via [`set_tag`].
    pub tags: Vec<(String, String)>,
}

impl Trace {
    /// An empty trace (no lanes, no tags).
    pub fn empty() -> Self {
        Trace {
            lanes: vec![],
            tags: vec![],
        }
    }

    /// Merges several traces into one: lanes are concatenated and re-sorted
    /// by label, tags are unioned (first writer of a key wins). Used by the
    /// multi-process launcher to fold each node process's trace into the
    /// parent's timeline.
    pub fn merged(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut lanes = Vec::new();
        let mut tags: Vec<(String, String)> = Vec::new();
        for t in traces {
            lanes.extend(t.lanes);
            for (k, v) in t.tags {
                if !tags.iter().any(|(k2, _)| *k2 == k) {
                    tags.push((k, v));
                }
            }
        }
        lanes.sort_by(|a, b| natural_key(&a.label).cmp(&natural_key(&b.label)));
        Trace { lanes, tags }
    }

    /// The value of a session tag, if set.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
    /// Sum of a counter over all lanes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lanes.iter().map(|l| l.counter(name)).sum()
    }

    /// The lane with the given label, if any.
    pub fn lane(&self, label: &str) -> Option<&Lane> {
        self.lanes.iter().find(|l| l.label == label)
    }

    /// Per-node totals of a counter: index `m` holds the `node-<m>` lane's
    /// total. The length covers the highest node lane present; nodes
    /// without a lane (never scheduled work) read as 0.
    pub fn per_node_counter(&self, name: &str) -> Vec<u64> {
        let nodes: Vec<(usize, u64)> = self
            .lanes
            .iter()
            .filter_map(|l| Some((l.node_id()?, l.counter(name))))
            .collect();
        let len = nodes.iter().map(|(m, _)| m + 1).max().unwrap_or(0);
        let mut out = vec![0u64; len];
        for (m, v) in nodes {
            out[m] += v;
        }
        out
    }

    /// Number of completed spans with the given name, across lanes.
    pub fn span_count(&self, name: &str) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.name == name)
            .count()
    }

    /// Exact merge of a histogram over all lanes: the distribution a
    /// single lane would hold had it recorded every sample. Empty when no
    /// lane recorded the name.
    pub fn histogram_total(&self, name: &str) -> Histogram {
        let mut out = Histogram::new();
        for lane in &self.lanes {
            if let Some(h) = lane.histograms.get(name) {
                out.merge(h);
            }
        }
        out
    }

    /// Every histogram name present on any lane, sorted and deduplicated.
    pub fn histogram_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .lanes
            .iter()
            .flat_map(|l| l.histograms.keys().copied())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Per-span-name totals with self time (total minus nested children),
    /// sorted by total time descending. Events on a lane are in
    /// completion order, so children always precede their parent; a
    /// per-depth accumulator attributes each child's duration to its
    /// enclosing span exactly once.
    pub fn span_rollup(&self) -> Vec<SpanStat> {
        let mut stats: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for lane in &self.lanes {
            let mut child_ns: Vec<u64> = Vec::new();
            for e in &lane.events {
                let d = e.depth as usize;
                if child_ns.len() <= d + 1 {
                    child_ns.resize(d + 2, 0);
                }
                let nested = std::mem::take(&mut child_ns[d + 1]);
                child_ns[d] += e.dur_ns;
                let s = stats.entry(e.name).or_insert(SpanStat {
                    name: e.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                s.count += 1;
                s.total_ns += e.dur_ns;
                s.self_ns += e.dur_ns.saturating_sub(nested);
            }
        }
        let mut out: Vec<SpanStat> = stats.into_values().collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        out
    }

    /// The paper's timing discipline: the maximum busy time over node
    /// lanes (falling back to all lanes when no `node-<m>` lane exists).
    pub fn critical_path_ns(&self) -> u64 {
        let nodes = self
            .lanes
            .iter()
            .filter(|l| l.node_id().is_some())
            .map(Lane::busy_ns)
            .max();
        nodes.unwrap_or_else(|| self.lanes.iter().map(Lane::busy_ns).max().unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_returns_inert_guards() {
        let _guard = session_lock();
        assert!(!enabled());
        let sp = span("never");
        count("never", 7);
        set_lane_label("ghost");
        drop(sp);
        start();
        let trace = stop();
        assert!(trace.lanes.is_empty(), "{trace:?}");
    }

    #[test]
    fn spans_nest_and_counters_accumulate() {
        let ((), trace) = capture(|| {
            set_lane_label("node-0");
            let _outer = span("outer");
            count("widgets", 2);
            {
                let _inner = span("inner");
                count("widgets", 3);
            }
        });
        let lane = trace.lane("node-0").expect("lane exists");
        assert_eq!(lane.counter("widgets"), 5);
        let inner = lane.events.iter().find(|e| e.name == "inner").unwrap();
        let outer = lane.events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!((inner.depth, outer.depth), (1, 0));
        assert!(inner.dur_ns <= outer.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(lane.busy_ns(), outer.dur_ns);
        assert_eq!(trace.counter_total("widgets"), 5);
    }

    #[test]
    fn lane_as_lends_the_thread_to_one_labeled_lane() {
        let ((), trace) = capture(|| {
            set_lane_label("caller");
            let _dispatch = span("dispatch");
            count("own", 1);
            for _ in 0..2 {
                let _loan = lane_as("node-0");
                let _sp = span("body");
                count("moved", 3);
                record("wait_ns", 7);
            }
            count("own", 1);
        });
        // Both loans reuse one `node-0` lane; nothing leaks either way.
        assert_eq!(trace.lanes.len(), 2, "{trace:?}");
        let node0 = trace.lane("node-0").expect("lent lane exists");
        assert_eq!(node0.counter("moved"), 6);
        assert_eq!(node0.counter("own"), 0);
        assert_eq!(node0.histogram("wait_ns").map(|h| h.count()), Some(2));
        let bodies: Vec<&Event> = node0.events.iter().filter(|e| e.name == "body").collect();
        assert_eq!(bodies.len(), 2);
        assert!(bodies.iter().all(|e| e.depth == 0), "{bodies:?}");
        let caller = trace.lane("caller").expect("own lane exists");
        assert_eq!(caller.counter("own"), 2);
        assert_eq!(caller.counter("moved"), 0);
        let names: Vec<&str> = caller.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["dispatch"]);
        assert_eq!(trace.per_node_counter("moved"), vec![6]);
    }

    #[test]
    fn lane_as_is_inert_while_disabled() {
        let _guard = session_lock();
        assert!(!enabled());
        let loan = lane_as("node-0");
        count("never", 1);
        drop(loan);
        start();
        count("after", 1);
        let trace = stop();
        assert_eq!(trace.lanes.len(), 1);
        assert!(trace.lane("node-0").is_none(), "{trace:?}");
    }

    #[test]
    fn threads_get_their_own_lanes() {
        let ((), trace) = capture(|| {
            std::thread::scope(|scope| {
                for m in 0..3 {
                    scope.spawn(move || {
                        set_lane_label(&format!("node-{m}"));
                        let _sp = span("work");
                        count("items", (m + 1) as u64);
                    });
                }
            });
        });
        assert_eq!(trace.per_node_counter("items"), vec![1, 2, 3]);
        assert_eq!(trace.span_count("work"), 3);
        assert!(trace.critical_path_ns() > 0);
    }

    #[test]
    fn lane_sorting_is_numeric_aware() {
        let ((), trace) = capture(|| {
            std::thread::scope(|scope| {
                for m in [10usize, 2, 0] {
                    scope.spawn(move || {
                        set_lane_label(&format!("node-{m}"));
                        count("x", 1);
                    });
                }
            });
        });
        let labels: Vec<&str> = trace.lanes.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, vec!["node-0", "node-2", "node-10"]);
    }

    #[test]
    fn count_on_lane_credits_by_label() {
        let ((), trace) = capture(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    set_lane_label("node-0");
                    count("marker", 1);
                });
            });
            count_on_lane("node-0", "barrier_wait_ns", 123);
            count_on_lane("no-such-lane", "barrier_wait_ns", 999);
        });
        assert_eq!(
            trace.lane("node-0").unwrap().counter("barrier_wait_ns"),
            123
        );
        assert_eq!(trace.counter_total("barrier_wait_ns"), 123);
    }

    #[test]
    fn record_and_timed_span_build_histograms() {
        let ((), trace) = capture(|| {
            set_lane_label("node-0");
            for v in [5u64, 50, 500, 5000] {
                record("msg_bytes", v);
            }
            let _t = timed_span("work_ns");
        });
        let lane = trace.lane("node-0").unwrap();
        let h = lane.histogram("msg_bytes").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 5000);
        let t = trace.histogram_total("work_ns");
        assert_eq!(t.count(), 1);
        assert!(trace.histogram_names().contains(&"msg_bytes"));
    }

    #[test]
    fn histogram_total_merges_across_lanes() {
        let ((), trace) = capture(|| {
            std::thread::scope(|scope| {
                for m in 0..3 {
                    scope.spawn(move || {
                        set_lane_label(&format!("node-{m}"));
                        for i in 0..10u64 {
                            record("wait_ns", i * (m + 1) as u64);
                        }
                    });
                }
            });
            record_on_lane("node-1", "wait_ns", 7777);
            record_on_lane("no-such-lane", "wait_ns", 1);
        });
        let total = trace.histogram_total("wait_ns");
        assert_eq!(total.count(), 31);
        assert_eq!(total.max(), 7777);
        assert_eq!(
            trace
                .lane("node-1")
                .unwrap()
                .histogram("wait_ns")
                .unwrap()
                .count(),
            11
        );
    }

    #[test]
    fn gauges_record_timestamped_samples() {
        let ((), trace) = capture(|| {
            set_lane_label("main");
            gauge("queue_depth", 3);
            gauge("queue_depth", 1);
        });
        let lane = trace.lane("main").unwrap();
        assert_eq!(lane.samples.len(), 2);
        assert_eq!(lane.samples[0].value, 3);
        assert!(lane.samples[1].t_ns >= lane.samples[0].t_ns);
    }

    #[test]
    fn counter_now_reads_live_totals() {
        let ((), ()) = {
            let _guard = session_lock();
            start();
            count("live", 4);
            assert_eq!(counter_now("live"), 4);
            count("live", 2);
            assert_eq!(counter_now("live"), 6);
            let _ = stop();
            assert_eq!(counter_now("live"), 0);
            ((), ())
        };
    }

    #[test]
    fn span_rollup_computes_self_time() {
        let ((), trace) = capture(|| {
            set_lane_label("main");
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let rollup = trace.span_rollup();
        let outer = rollup.iter().find(|s| s.name == "outer").unwrap();
        let inner = rollup.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        // Sorted by total descending.
        assert_eq!(rollup[0].name, "outer");
    }

    #[test]
    fn timed_span_straddling_stop_is_discarded() {
        let _guard = session_lock();
        start();
        let t = timed_span("straddler_ns");
        let first = stop();
        start();
        drop(t);
        let second = stop();
        assert!(first.histogram_total("straddler_ns").is_empty());
        assert!(second.histogram_total("straddler_ns").is_empty());
    }

    #[test]
    fn span_straddling_stop_is_discarded() {
        let _guard = session_lock();
        start();
        let sp = span("straddler");
        let first = stop();
        start();
        drop(sp);
        let second = stop();
        assert_eq!(first.span_count("straddler"), 0);
        assert_eq!(second.span_count("straddler"), 0);
    }
}
