//! Process-wide schedule/plan cache, sharded for contention-free
//! concurrent serving.
//!
//! An interpreter (or any driver) that executes the same statement shape
//! repeatedly — a loop over identical sections — pays the full
//! `CommSchedule::build` / [`plan_section`] cost every iteration even
//! though the result depends only on `(p, k, section)` parameters, never
//! on array contents. This module memoizes both products behind a
//! capacity-bounded, LRU-evicting store, keyed by the exact build
//! parameters and returning shared [`Arc`] handles.
//!
//! The store is built for the many-driver regime the `traffic` bench
//! measures (N interpreted scripts hammering one process-wide cache):
//!
//! * **Sharding** — [`ShardedCache`] splits the key space over
//!   `next_pow2(4 × cores)` independent shards selected by the high bits
//!   of an FxHash ([`bcag_harness::hash`]); threads touching different
//!   keys almost never touch the same lock. `BCAG_CACHE_SHARDS=1`
//!   reproduces the historical single-store semantics (one lock domain,
//!   one global LRU order).
//! * **Read-mostly hits** — each shard is an [`RwLock`] over a small
//!   open-addressed hash table (linear probing, backward-shift
//!   deletion). The hit path takes the *shared* lock, probes by hash,
//!   and refreshes recency by storing a global atomic tick into the
//!   entry's atomic stamp — a hit never takes a write lock, so
//!   concurrent hits on one shard proceed in parallel.
//! * **Single-flight builds** — two threads missing the same key
//!   arbitrate through a per-shard in-flight list: one builds, the rest
//!   wait on a condvar and share the builder's [`Arc`]. Distinct keys
//!   build concurrently; build errors are never cached (every waiter of
//!   a failed flight retries or rebuilds itself).
//!
//! Capacity defaults to [`DEFAULT_CAPACITY`] entries spread evenly over
//! the shards and can be overridden with the `BCAG_SCHED_CACHE_CAP` env
//! var (`0` disables caching entirely; every lookup builds). Both env
//! vars are read once, at first use, and clamped to [`MAX_CAPACITY`]
//! and [`MAX_SHARDS`].
//!
//! Every lookup records a `schedule_cache_hits` or `schedule_cache_misses`
//! counter via [`bcag_trace`], plus occupancy gauges (total and
//! per-shard) on the insert path, so a `--trace` run shows exactly how
//! much rebuild work the cache absorbed and how evenly the shards carry
//! it.

use std::any::{Any, TypeId};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

use bcag_core::error::Result;
use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_harness::hash::{hash_one, next_pow2};

use crate::assign::{plan_section, NodePlan};
use crate::comm::{CommSchedule, ExecMode};
use crate::pool::lock_clean;
use crate::transport::TransportKind;

/// Default maximum number of cached entries (across all shards);
/// least-recently-used entries are evicted shard-locally beyond this.
/// Override with `BCAG_SCHED_CACHE_CAP`.
pub const DEFAULT_CAPACITY: usize = 128;

/// Largest accepted `BCAG_SCHED_CACHE_CAP`: the store allocates every
/// shard's table up front, so an unbounded value would abort the process
/// at first use.
pub const MAX_CAPACITY: usize = 65_536;

/// Largest accepted `BCAG_CACHE_SHARDS` (a power of two, so clamped
/// values need no further rounding).
pub const MAX_SHARDS: usize = 1024;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    /// A communication schedule from [`CommSchedule::build`] with the
    /// given pattern method.
    Schedule {
        p: i64,
        k_a: i64,
        sec_a: (i64, i64, i64),
        k_b: i64,
        sec_b: (i64, i64, i64),
        method: Method,
        /// The execution context the schedule will run under. The
        /// schedule *data* is context-independent, but keying on the
        /// (exec mode, transport) pair guarantees a run switching
        /// transports mid-process can never observe a plan warmed for —
        /// and potentially specialized to — the other configuration.
        exec: (ExecMode, TransportKind),
    },
    /// A per-node owner-computes plan set from [`plan_section`].
    Plans {
        p: i64,
        k: i64,
        sec: (i64, i64, i64),
        method: Method,
    },
    /// A fused statement program from [`crate::fuse`]: the whole
    /// statement shape (LHS layout/section plus every operand's), the
    /// monomorphized element type, and the execution context it was
    /// compiled for. Stored type-erased so the cache stays monomorphic.
    Fused {
        p: i64,
        k_a: i64,
        sec_a: (i64, i64, i64),
        ops: Vec<(i64, (i64, i64, i64))>,
        tid: TypeId,
        exec: (ExecMode, TransportKind),
    },
}

#[derive(Clone)]
enum Value {
    Schedule(Arc<CommSchedule>),
    Plans(Arc<Vec<NodePlan>>),
    Fused(Arc<dyn Any + Send + Sync>),
}

/// One resident entry. The stamp is atomic so the read path can refresh
/// recency under the shard's *shared* lock.
struct Slot<K, V> {
    hash: u64,
    key: K,
    value: V,
    stamp: AtomicU64,
}

/// Open-addressed hash table with linear probing and backward-shift
/// deletion. Slot count is a power of two at least twice the entry
/// capacity, so probe chains stay short and lookups always terminate.
struct Table<K, V> {
    slots: Box<[Option<Slot<K, V>>]>,
    len: usize,
}

impl<K: Eq, V> Table<K, V> {
    fn new(nslots: usize) -> Table<K, V> {
        Table {
            slots: (0..nslots).map(|_| None).collect(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn find(&self, hash: u64, key: &K) -> Option<&Slot<K, V>> {
        let mask = self.mask();
        let mut i = (hash as usize) & mask;
        loop {
            match &self.slots[i] {
                None => return None,
                Some(s) if s.hash == hash && s.key == *key => return Some(s),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn insert(&mut self, hash: u64, key: K, value: V, stamp: u64) {
        let mask = self.mask();
        let mut i = (hash as usize) & mask;
        while self.slots[i].is_some() {
            i = (i + 1) & mask;
        }
        self.slots[i] = Some(Slot {
            hash,
            key,
            value,
            stamp: AtomicU64::new(stamp),
        });
        self.len += 1;
    }

    /// Removes the least-recently-stamped entry; returns false on an
    /// empty table.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (i, s.stamp.load(Ordering::Relaxed))))
            .min_by_key(|&(_, stamp)| stamp)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                self.remove_at(i);
                true
            }
            None => false,
        }
    }

    /// Backward-shift deletion: entries displaced past the hole are
    /// shifted back so probe chains never need tombstones.
    fn remove_at(&mut self, idx: usize) {
        let mask = self.mask();
        self.slots[idx] = None;
        self.len -= 1;
        let mut hole = idx;
        let mut i = idx;
        loop {
            i = (i + 1) & mask;
            let Some(s) = &self.slots[i] else { break };
            let home = (s.hash as usize) & mask;
            // The entry at `i` may fill the hole iff the hole lies on
            // its probe path, i.e. its displacement from home reaches at
            // least back to the hole.
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
        }
    }
}

/// One in-progress build: missers of the same key block here instead of
/// duplicating the build.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

enum FlightState<V> {
    Building,
    Done(V),
    Failed,
}

impl<V: Clone> Flight<V> {
    fn new() -> Flight<V> {
        Flight {
            state: Mutex::new(FlightState::Building),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the builder resolves; `None` means the build failed
    /// (errors are not cached — the waiter should retry itself).
    fn wait(&self) -> Option<V> {
        let mut st = lock_clean(&self.state);
        loop {
            match &*st {
                FlightState::Building => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Failed => return None,
            }
        }
    }

    fn resolve(&self, value: Option<V>) {
        *lock_clean(&self.state) = match value {
            Some(v) => FlightState::Done(v),
            None => FlightState::Failed,
        };
        self.cv.notify_all();
    }
}

/// One shard: an independent lock domain with its own table, in-flight
/// build list and counters. Counters are atomics so the hit path and
/// [`ShardedCache::stats`] never contend on a lock for bookkeeping.
struct CacheShard<K, V> {
    table: RwLock<Table<K, V>>,
    inflight: Mutex<Vec<(K, Arc<Flight<V>>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// What one lookup did — callers use this to emit their own telemetry
/// (the schedule-cache wrapper turns it into trace counters).
pub struct LookupOutcome<V> {
    /// The cached or freshly built value.
    pub value: V,
    /// Whether the value was already resident (read-path answer).
    pub hit: bool,
    /// Whether inserting the built value displaced an LRU victim.
    pub evicted: bool,
}

/// A sharded, read-mostly, LRU-evicting map: the concurrency engine
/// behind the process-wide schedule cache, public so benches and stress
/// tests can build small instances with explicit capacities and shard
/// counts.
pub struct ShardedCache<K, V> {
    shards: Box<[CacheShard<K, V>]>,
    /// Global recency clock; entries stamp themselves with `tick` values
    /// on every touch, so LRU selection is a min-scan over stamps.
    tick: AtomicU64,
    per_shard_cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A store holding up to `capacity` entries (rounded up to a
    /// multiple of the shard count) over `shards` lock domains (rounded
    /// up to a power of two). `capacity == 0` disables retention:
    /// every lookup builds.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache<K, V> {
        let n = next_pow2(shards);
        let per_shard_cap = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(n)
        };
        let nslots = next_pow2((per_shard_cap * 2).max(4));
        ShardedCache {
            shards: (0..n)
                .map(|_| CacheShard {
                    table: RwLock::new(Table::new(nslots)),
                    inflight: Mutex::new(Vec::new()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                })
                .collect(),
            tick: AtomicU64::new(0),
            per_shard_cap,
        }
    }

    /// Number of independent lock domains.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Effective total capacity (`per-shard capacity × shards`; 0 means
    /// caching is disabled).
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * self.shards.len()
    }

    /// Shard selection uses the *high* hash bits; table slots use the
    /// low bits, so the two indices are independent.
    fn shard_of(&self, hash: u64) -> &CacheShard<K, V> {
        &self.shards[(hash >> 32) as usize & (self.shards.len() - 1)]
    }

    /// Read-path probe: shared lock, hash probe, atomic recency refresh.
    fn probe(&self, shard: &CacheShard<K, V>, hash: u64, key: &K) -> Option<V> {
        let table = shard.table.read().unwrap_or_else(|e| e.into_inner());
        let slot = table.find(hash, key)?;
        slot.stamp.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(slot.value.clone())
    }

    /// Write-path insert; returns whether an LRU victim was displaced.
    fn insert(&self, shard: &CacheShard<K, V>, hash: u64, key: &K, value: V) -> bool {
        let mut table = shard.table.write().unwrap_or_else(|e| e.into_inner());
        if table.find(hash, key).is_some() {
            // Only this key's flight owner inserts it, but a concurrent
            // `clear()` + rebuild can race; keep the resident entry.
            return false;
        }
        let mut evicted = false;
        if table.len >= self.per_shard_cap && table.evict_lru() {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            evicted = true;
        }
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        table.insert(hash, key.clone(), value, stamp);
        evicted
    }

    /// Looks up `key`, building (outside all locks, single-flight per
    /// key) and inserting on a miss. Exactly one of `hit`/`!hit` is
    /// reported per call, so `Σ hits + Σ misses == Σ lookups` holds
    /// under any interleaving; a waiter that joins another thread's
    /// build counts as a miss.
    pub fn get_or_try_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> std::result::Result<V, E>,
    ) -> std::result::Result<LookupOutcome<V>, E> {
        let hash = hash_one(&key);
        let shard = self.shard_of(hash);
        if let Some(value) = self.probe(shard, hash, &key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(LookupOutcome {
                value,
                hit: true,
                evicted: false,
            });
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        if self.per_shard_cap == 0 {
            // Caching disabled: every lookup builds, nothing is
            // retained, no flight arbitration.
            return build().map(|value| LookupOutcome {
                value,
                hit: false,
                evicted: false,
            });
        }
        // A caller is the builder at most once; `Option` lets waiters of
        // a failed flight loop back and claim the build themselves.
        let mut build = Some(build);
        loop {
            enum Role<V> {
                Builder(Arc<Flight<V>>),
                Waiter(Arc<Flight<V>>),
            }
            let role = {
                let mut inflight = lock_clean(&shard.inflight);
                // Re-probe under the in-flight lock: a builder that
                // finished between our probe and now has already
                // inserted its value and retired its flight.
                if let Some(value) = self.probe(shard, hash, &key) {
                    return Ok(LookupOutcome {
                        value,
                        hit: false,
                        evicted: false,
                    });
                }
                match inflight.iter().find(|(k, _)| *k == key) {
                    Some((_, f)) => Role::Waiter(Arc::clone(f)),
                    None => {
                        let f = Arc::new(Flight::new());
                        inflight.push((key.clone(), Arc::clone(&f)));
                        Role::Builder(f)
                    }
                }
            };
            match role {
                Role::Waiter(f) => {
                    if let Some(value) = f.wait() {
                        return Ok(LookupOutcome {
                            value,
                            hit: false,
                            evicted: false,
                        });
                    }
                    // The flight failed; errors are not cached. Loop:
                    // re-probe and build ourselves if nobody else is.
                }
                Role::Builder(f) => {
                    let build = build.take().expect("a caller builds at most once");
                    let result = build();
                    let (resolved, evicted) = match &result {
                        Ok(value) => (
                            Some(value.clone()),
                            self.insert(shard, hash, &key, value.clone()),
                        ),
                        Err(_) => (None, false),
                    };
                    {
                        let mut inflight = lock_clean(&shard.inflight);
                        inflight.retain(|(k, _)| k != &key);
                    }
                    f.resolve(resolved);
                    return result.map(|value| LookupOutcome {
                        value,
                        hit: false,
                        evicted,
                    });
                }
            }
        }
    }

    /// Whether `key` is resident, without touching recency or counters.
    pub fn contains(&self, key: &K) -> bool {
        let hash = hash_one(key);
        let table = self
            .shard_of(hash)
            .table
            .read()
            .unwrap_or_else(|e| e.into_inner());
        table.find(hash, key).is_some()
    }

    /// Cheap `(hits, misses)` totals — atomic sums only, no table locks.
    /// The always-on flight recorder reads this on every statement.
    pub fn counters(&self) -> (u64, u64) {
        let hits = self
            .shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum();
        let misses = self
            .shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum();
        (hits, misses)
    }

    /// Current entry count per shard (shared-lock reads).
    pub fn shard_entries(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.table.read().unwrap_or_else(|e| e.into_inner()).len)
            .collect()
    }

    /// Lifetime hit/miss/eviction totals rolled up over every shard,
    /// plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (hits, misses) = self.counters();
        CacheStats {
            hits,
            misses,
            entries: self.shard_entries().iter().sum(),
            capacity: self.capacity(),
            evictions: self
                .shards
                .iter()
                .map(|s| s.evictions.load(Ordering::Relaxed))
                .sum(),
            shards: self.shards.len(),
        }
    }

    /// Empties every shard (stats totals are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut table = shard.table.write().unwrap_or_else(|e| e.into_inner());
            let nslots = table.slots.len();
            *table = Table::new(nslots);
        }
    }
}

fn store() -> &'static ShardedCache<Key, Value> {
    static STORE: OnceLock<ShardedCache<Key, Value>> = OnceLock::new();
    STORE.get_or_init(|| {
        let cap = parse_cap(std::env::var("BCAG_SCHED_CACHE_CAP").ok().as_deref());
        let shards = parse_shards(std::env::var("BCAG_CACHE_SHARDS").ok().as_deref());
        ShardedCache::new(cap, shards)
    })
}

/// Resolves a `BCAG_SCHED_CACHE_CAP` value: unset or unparsable falls
/// back to [`DEFAULT_CAPACITY`]; `0` disables caching; larger values are
/// clamped to [`MAX_CAPACITY`].
fn parse_cap(var: Option<&str>) -> usize {
    match var {
        Some(s) => s
            .trim()
            .parse::<usize>()
            .map_or(DEFAULT_CAPACITY, |n| n.min(MAX_CAPACITY)),
        None => DEFAULT_CAPACITY,
    }
}

/// Resolves a `BCAG_CACHE_SHARDS` value (clamped to [`MAX_SHARDS`], then
/// rounded up to a power of two): unset or unparsable falls back to
/// [`default_shards`]; `1` reproduces the historical single-store
/// semantics.
fn parse_shards(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => next_pow2(n.min(MAX_SHARDS)),
        _ => default_shards(),
    }
}

/// The default shard count: `next_pow2(4 × cores)` — enough lock
/// domains that even a driver count well past the core count rarely
/// collides on one shard.
fn default_shards() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    next_pow2(4 * cores)
}

/// The store's effective total capacity (after the env override).
pub fn capacity() -> usize {
    store().capacity()
}

/// The store's shard count (after the `BCAG_CACHE_SHARDS` override).
pub fn shards() -> usize {
    store().shards()
}

/// Current entry count per shard of the process-wide store — `bcag
/// stats` prints this so skewed key distributions are visible.
pub fn shard_entries() -> Vec<usize> {
    store().shard_entries()
}

/// Cheap `(hits, misses)` lifetime totals of the process-wide store
/// (atomic sums, no table locks) for always-on callers like the
/// statement flight recorder.
pub fn counters() -> (u64, u64) {
    store().counters()
}

/// Cache effectiveness counters (process lifetime totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum entries the store retains (0 = caching disabled).
    pub capacity: usize,
    /// LRU entries displaced to make room for new ones.
    pub evictions: u64,
    /// Independent lock domains the store is split over.
    pub shards: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Returns the lifetime hit/miss/eviction totals and current occupancy.
pub fn stats() -> CacheStats {
    store().stats()
}

/// Empties the cache (stats totals are kept). Intended for tests and
/// memory-sensitive embedders. Occupancy gauges are re-emitted as zero
/// so a trace timeline doesn't show stale entry counts past the clear.
pub fn clear() {
    store().clear();
    if bcag_trace::enabled() {
        bcag_trace::gauge("schedule_cache_entries", 0);
        for i in 0..store().shards() {
            bcag_trace::gauge_dyn(&format!("schedule_cache_shard{i}_entries"), 0);
        }
    }
}

fn sec_key(sec: &RegularSection) -> (i64, i64, i64) {
    (sec.l, sec.u, sec.s)
}

/// The single gauge-emission helper shared by the hit and insert paths
/// (they previously disagreed on the hit-pct denominator): hit
/// percentage on every lookup, occupancy (total and per-shard) only when
/// it can have changed (the insert path).
fn emit_gauges(hit: bool) {
    if !bcag_trace::enabled() {
        return;
    }
    let s = store();
    let (hits, misses) = s.counters();
    bcag_trace::gauge(
        "schedule_cache_hit_pct",
        100 * hits / (hits + misses).max(1),
    );
    if !hit {
        let per_shard = s.shard_entries();
        bcag_trace::gauge(
            "schedule_cache_entries",
            per_shard.iter().sum::<usize>() as u64,
        );
        for (i, n) in per_shard.iter().enumerate() {
            bcag_trace::gauge_dyn(&format!("schedule_cache_shard{i}_entries"), *n as u64);
        }
    }
}

/// Looks up `key` in the process-wide store, building on a miss, and
/// emits the trace counters/gauges the lookup implies.
fn get_or_build(key: Key, build_value: impl FnOnce() -> Result<Value>) -> Result<Value> {
    let outcome = store().get_or_try_build(key, build_value)?;
    if outcome.hit {
        bcag_trace::count("schedule_cache_hits", 1);
    } else {
        bcag_trace::count("schedule_cache_misses", 1);
    }
    if outcome.evicted {
        bcag_trace::count("schedule_cache_evictions", 1);
    }
    emit_gauges(outcome.hit);
    Ok(outcome.value)
}

/// Cached [`CommSchedule::build`], keyed additionally by the execution
/// context (`mode`, `kind`) the caller will run the schedule under.
pub fn schedule(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    k_b: i64,
    sec_b: &RegularSection,
    method: Method,
    mode: ExecMode,
    kind: TransportKind,
) -> Result<Arc<CommSchedule>> {
    let key = Key::Schedule {
        p,
        k_a,
        sec_a: sec_key(sec_a),
        k_b,
        sec_b: sec_key(sec_b),
        method,
        exec: (mode, kind),
    };
    let v = get_or_build(key, || {
        CommSchedule::build(p, k_a, sec_a, k_b, sec_b, method).map(|s| Value::Schedule(Arc::new(s)))
    })?;
    match v {
        Value::Schedule(s) => Ok(s),
        _ => unreachable!("schedule key maps to schedule value"),
    }
}

/// Cached [`plan_section`].
pub fn plans(p: i64, k: i64, sec: &RegularSection, method: Method) -> Result<Arc<Vec<NodePlan>>> {
    let key = Key::Plans {
        p,
        k,
        sec: sec_key(sec),
        method,
    };
    let v = get_or_build(key, || {
        plan_section(p, k, sec, method).map(|p| Value::Plans(Arc::new(p)))
    })?;
    match v {
        Value::Plans(p) => Ok(p),
        _ => unreachable!("plans key maps to plans value"),
    }
}

/// Cached fused statement program (built by [`crate::fuse`]), keyed by
/// the full statement shape — LHS `(p, k_a, sec_a)` plus every operand's
/// `(k_b, sec_b)` in order — the monomorphized program type `V` (which
/// carries the element type), and the execution context. Single-flight
/// builds and LRU eviction apply exactly as for schedules and plans.
pub fn fused<V: Send + Sync + 'static>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    build: impl FnOnce() -> Result<Arc<V>>,
) -> Result<Arc<V>> {
    let key = Key::Fused {
        p,
        k_a,
        sec_a: sec_key(sec_a),
        ops: ops.iter().map(|(k, s)| (*k, sec_key(s))).collect(),
        tid: TypeId::of::<V>(),
        exec: (mode, kind),
    };
    let v = get_or_build(key, || {
        build().map(|f| Value::Fused(f as Arc<dyn Any + Send + Sync>))
    })?;
    match v {
        Value::Fused(f) => Ok(Arc::downcast::<V>(f).expect("fused key carries the program type")),
        _ => unreachable!("fused key maps to fused value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: (ExecMode, TransportKind) = (ExecMode::Batched, TransportKind::Shm);

    #[test]
    fn schedule_hits_share_one_arc() {
        // A key shape deliberately unlike anything else in the test suite.
        let sec_a = RegularSection::new(3, 1203, 25).unwrap();
        let sec_b = RegularSection::new(7, 1207, 25).unwrap();
        let first = schedule(5, 11, &sec_a, 13, &sec_b, Method::Lattice, CTX.0, CTX.1).unwrap();
        let second = schedule(5, 11, &sec_a, 13, &sec_b, Method::Lattice, CTX.0, CTX.1).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn execution_context_is_part_of_the_key() {
        // Same build parameters under different transports must be
        // distinct entries: a run switching payload forms can never be
        // served a plan warmed for the other configuration.
        let sec_a = RegularSection::new(9, 1209, 24).unwrap();
        let sec_b = RegularSection::new(1, 1201, 24).unwrap();
        let base = schedule(3, 7, &sec_a, 9, &sec_b, Method::Lattice, CTX.0, CTX.1).unwrap();
        let other_kind = schedule(
            3,
            7,
            &sec_a,
            9,
            &sec_b,
            Method::Lattice,
            ExecMode::Batched,
            TransportKind::Proc,
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_kind));
        // The schedule *data* is context-independent.
        for src in 0..3 {
            for dst in 0..3 {
                assert!(base
                    .transfer_runs(src, dst)
                    .eq(other_kind.transfer_runs(src, dst)));
            }
        }
    }

    #[test]
    fn plans_hit_after_miss() {
        let sec = RegularSection::new(1, 961, 17).unwrap();
        let before = stats();
        let first = plans(6, 9, &sec, Method::Lattice).unwrap();
        let second = plans(6, 9, &sec, Method::Lattice).unwrap();
        let after = stats();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn occupancy_stays_bounded() {
        let cap = capacity();
        for i in 0..(cap as i64 + 16) {
            let sec = RegularSection::new(i, i + 400, 401).unwrap();
            let _ = plans(2, 3, &sec, Method::Lattice).unwrap();
        }
        assert!(stats().entries <= cap);
        // Eviction is shard-local but the bound is global: no shard
        // exceeds its slice of the capacity.
        let per_shard_cap = cap / shards();
        for n in shard_entries() {
            assert!(n <= per_shard_cap, "{n} > {per_shard_cap}");
        }
    }

    #[test]
    fn parse_cap_resolves_env_values() {
        assert_eq!(parse_cap(None), DEFAULT_CAPACITY);
        assert_eq!(parse_cap(Some("17")), 17);
        assert_eq!(parse_cap(Some(" 64 ")), 64);
        assert_eq!(parse_cap(Some("0")), 0);
        assert_eq!(parse_cap(Some("banana")), DEFAULT_CAPACITY);
        assert_eq!(parse_cap(Some("-3")), DEFAULT_CAPACITY);
        assert_eq!(parse_cap(Some("")), DEFAULT_CAPACITY);
        // Huge values clamp instead of sizing an unallocatable table.
        assert_eq!(parse_cap(Some("65536")), MAX_CAPACITY);
        assert_eq!(parse_cap(Some("1099511627776")), MAX_CAPACITY);
        assert_eq!(parse_cap(Some("18446744073709551615")), MAX_CAPACITY);
        assert_eq!(parse_cap(Some("18446744073709551616")), DEFAULT_CAPACITY);
    }

    #[test]
    fn parse_shards_resolves_env_values() {
        assert_eq!(parse_shards(Some("1")), 1);
        assert_eq!(parse_shards(Some("8")), 8);
        assert_eq!(parse_shards(Some("6")), 8, "rounded up to a power of two");
        assert_eq!(parse_shards(Some("0")), default_shards());
        assert_eq!(parse_shards(Some("banana")), default_shards());
        assert_eq!(parse_shards(None), default_shards());
        // Huge values clamp instead of allocating 2^40 shards.
        assert_eq!(parse_shards(Some("1024")), MAX_SHARDS);
        assert_eq!(parse_shards(Some("1025")), MAX_SHARDS);
        assert_eq!(parse_shards(Some("1099511627776")), MAX_SHARDS);
        assert_eq!(parse_shards(Some("18446744073709551615")), MAX_SHARDS);
        assert!(MAX_SHARDS.is_power_of_two());
        assert!(default_shards().is_power_of_two());
        assert!(default_shards() >= 4);
    }

    /// A tiny explicit store for semantics tests: `u64` keys, values
    /// tagging which build produced them.
    fn probe(store: &ShardedCache<u64, Arc<u64>>, key: u64) -> LookupOutcome<Arc<u64>> {
        store
            .get_or_try_build(key, || Ok::<_, ()>(Arc::new(key * 10)))
            .unwrap()
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(0, 4);
        let first = probe(&store, 7).value;
        let second = probe(&store, 7).value;
        // Every lookup builds: distinct allocations, nothing retained.
        assert!(!Arc::ptr_eq(&first, &second));
        let st = store.stats();
        assert_eq!(st.entries, 0);
        assert_eq!(st.capacity, 0);
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, 2);
    }

    #[test]
    fn single_shard_reproduces_single_store_lru() {
        // `BCAG_CACHE_SHARDS=1` semantics: one lock domain, one global
        // LRU order over the whole capacity.
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(2, 1);
        assert_eq!(store.shards(), 1);
        let first = probe(&store, 0).value;
        let _ = probe(&store, 1);
        // Touch key 0 so key 1 is the LRU victim when key 2 arrives.
        let again = probe(&store, 0);
        assert!(again.hit);
        assert!(Arc::ptr_eq(&first, &again.value));
        let out = probe(&store, 2);
        assert!(out.evicted);
        assert!(store.contains(&0));
        assert!(!store.contains(&1));
        assert!(store.contains(&2));
    }

    #[test]
    fn eviction_accounting_matches_displacements() {
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(2, 1);
        for key in 0..5 {
            let _ = probe(&store, key);
        }
        // 5 distinct keys through a 2-entry store: the first two fill it,
        // the next three each displace one LRU victim.
        let st = store.stats();
        assert_eq!(st.evictions, 3);
        assert_eq!(st.entries, 2);
        assert_eq!(st.capacity, 2);
        assert_eq!(st.misses, 5);
        assert_eq!(st.hits, 0);
        assert_eq!(st.hit_rate(), 0.0);
        // A hit displaces nothing.
        let out = probe(&store, 4);
        assert!(out.hit && !out.evicted);
        let st = store.stats();
        assert_eq!(st.evictions, 3);
        assert_eq!(st.hits, 1);
        assert!(st.hit_rate() > 0.0);
    }

    #[test]
    fn sharded_store_bounds_every_shard() {
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(16, 4);
        assert_eq!(store.shards(), 4);
        assert_eq!(store.capacity(), 16);
        for key in 0..200 {
            let _ = probe(&store, key);
        }
        let st = store.stats();
        assert!(st.entries <= 16);
        assert_eq!(st.misses, 200);
        assert_eq!(st.misses, st.evictions + st.entries as u64);
        for n in store.shard_entries() {
            assert!(n <= 4, "shard over its slice: {n}");
        }
    }

    #[test]
    fn clear_empties_but_keeps_totals() {
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(8, 2);
        for key in 0..6 {
            let _ = probe(&store, key);
        }
        let before = store.stats();
        assert!(before.entries > 0);
        store.clear();
        let after = store.stats();
        assert_eq!(after.entries, 0);
        assert!(store.shard_entries().iter().all(|&n| n == 0));
        assert_eq!(after.misses, before.misses);
        // Old keys rebuild after a clear (fresh allocations).
        let rebuilt = probe(&store, 0);
        assert!(!rebuilt.hit);
    }

    #[test]
    fn single_flight_builds_once_per_key() {
        use std::sync::atomic::AtomicU64;
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(64, 4);
        let builds = AtomicU64::new(0);
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    gate.wait();
                    let out = store
                        .get_or_try_build(42u64, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Widen the miss window so stragglers join
                            // the flight instead of hitting.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(Arc::new(420))
                        })
                        .unwrap();
                    assert_eq!(*out.value, 420);
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "concurrent missers must share one build"
        );
        let st = store.stats();
        assert_eq!(st.hits + st.misses, 8, "every lookup counted exactly once");
    }

    #[test]
    fn failed_builds_are_not_cached_and_release_waiters() {
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(8, 2);
        let attempts = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let r = store.get_or_try_build(9u64, || {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        Err::<Arc<u64>, &str>("build exploded")
                    });
                    assert!(r.is_err());
                });
            }
        });
        // Every caller eventually got an error; nothing was retained.
        assert!(!store.contains(&9));
        assert!(attempts.load(Ordering::Relaxed) >= 1);
        // The key still builds fine afterwards.
        let ok = probe(&store, 9);
        assert!(!ok.hit);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let good = RegularSection::new(0, 9, 1).unwrap();
        let bad = RegularSection::new(0, 9, 2).unwrap(); // nonconforming
        assert!(schedule(2, 4, &good, 4, &bad, Method::Lattice, CTX.0, CTX.1).is_err());
        assert!(schedule(2, 4, &good, 4, &bad, Method::Lattice, CTX.0, CTX.1).is_err());
    }

    #[test]
    fn backward_shift_deletion_keeps_probe_chains_intact() {
        // Force collisions: capacity 8 in one shard (16 slots), keys
        // chosen freely — after evicting interior entries, every
        // survivor must still be findable.
        let store: ShardedCache<u64, Arc<u64>> = ShardedCache::new(8, 1);
        for key in 0..64 {
            let _ = probe(&store, key);
            // Every resident key the stats claim must actually probe.
            let st = store.stats();
            assert_eq!(st.entries as u64 + st.evictions, st.misses);
        }
        let mut resident = 0;
        for key in 0..64 {
            if store.contains(&key) {
                resident += 1;
                assert!(probe(&store, key).hit, "resident key {key} must hit");
            }
        }
        assert_eq!(resident, 8);
    }
}
