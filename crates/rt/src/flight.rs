//! Statement flight recorder: a bounded ring of the last executed
//! interpreter statements, always on (independent of the `bcag-trace`
//! switch) and cheap enough to leave running — one `Instant` read, one
//! lock-free schedule-cache counter rollup and one small mutex push per
//! statement.
//!
//! Each record carries what an operator needs after the fact: the
//! statement's kind and text, its latency, the data it moved (when
//! tracing was on), whether the schedule cache answered, and the
//! transport it ran on.
//! The ring is dumped to stderr when a statement panics (pool poison
//! propagates as a panic) and on demand via the `bcag stats`
//! subcommand.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bcag_spmd::cache;

/// Number of statements the ring retains.
pub const CAPACITY: usize = 64;

/// One executed statement, as remembered by the flight recorder.
#[derive(Debug, Clone)]
pub struct StatementRecord {
    /// Monotone sequence number (process lifetime).
    pub seq: u64,
    /// Statement kind (the span name, e.g. `rt.ASSIGN`).
    pub kind: &'static str,
    /// The statement text (truncated to a display-friendly length).
    pub line: String,
    /// Wall-clock latency of the statement.
    pub latency_ns: u64,
    /// Elements moved by the statement (0 when tracing was off).
    pub elements_moved: u64,
    /// Transport bytes sent by the statement (0 when tracing was off).
    pub bytes_tx: u64,
    /// Schedule-cache hits this statement scored.
    pub cache_hits: u64,
    /// Schedule-cache misses (builds) this statement caused.
    pub cache_misses: u64,
    /// Transport name (`shm` / `proc`).
    pub transport: &'static str,
    /// Whether the statement completed without error.
    pub ok: bool,
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<StatementRecord>> = Mutex::new(VecDeque::new());

fn lock_ring() -> std::sync::MutexGuard<'static, VecDeque<StatementRecord>> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counter/cache baseline captured before a statement runs, so the record
/// stores per-statement deltas rather than process totals.
pub struct Baseline {
    t0: Instant,
    /// `(hits, misses)` via [`cache::counters`] — the lock-free shard
    /// rollup, not the full [`cache::stats`] snapshot: the recorder runs
    /// on every statement and must never take the sharded store's table
    /// locks just for bookkeeping.
    cache: (u64, u64),
    elements_moved: u64,
    bytes_tx: u64,
}

impl Baseline {
    /// Snapshots the clock, the schedule-cache totals and (when tracing
    /// is on) the movement counters.
    pub fn capture() -> Baseline {
        let traced = bcag_trace::enabled();
        Baseline {
            t0: Instant::now(),
            cache: cache::counters(),
            elements_moved: if traced {
                bcag_trace::counter_now("elements_moved")
            } else {
                0
            },
            bytes_tx: if traced {
                bcag_trace::counter_now("transport_bytes_tx")
            } else {
                0
            },
        }
    }
}

/// Closes a statement's record against its [`Baseline`] and pushes it
/// onto the ring, displacing the oldest entry at capacity.
pub fn record(kind: &'static str, line: &str, before: Baseline, ok: bool) {
    let latency_ns = before.t0.elapsed().as_nanos() as u64;
    let cache_now = cache::counters();
    let traced = bcag_trace::enabled();
    let rec = StatementRecord {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        kind,
        line: truncate(line, 56),
        latency_ns,
        elements_moved: if traced {
            bcag_trace::counter_now("elements_moved").saturating_sub(before.elements_moved)
        } else {
            0
        },
        bytes_tx: if traced {
            bcag_trace::counter_now("transport_bytes_tx").saturating_sub(before.bytes_tx)
        } else {
            0
        },
        cache_hits: cache_now.0.saturating_sub(before.cache.0),
        cache_misses: cache_now.1.saturating_sub(before.cache.1),
        transport: bcag_spmd::transport::active_transport().name(),
        ok,
    };
    let mut ring = lock_ring();
    if ring.len() >= CAPACITY {
        ring.pop_front();
    }
    ring.push_back(rec);
}

/// The ring's current contents, oldest first.
pub fn snapshot() -> Vec<StatementRecord> {
    lock_ring().iter().cloned().collect()
}

/// Empties the ring (tests and fresh `bcag stats` sessions).
pub fn clear() {
    lock_ring().clear();
}

/// Renders records as a fixed-width table, oldest first.
pub fn render(records: &[StatementRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>5} {:<16} {:>10} {:>9} {:>10} {:>5} {:>5} {:<6} {:<3} statement\n",
        "seq", "kind", "lat_us", "elems", "tx_bytes", "hit", "miss", "xport", "ok",
    ));
    for r in records {
        out.push_str(&format!(
            "{:>5} {:<16} {:>10.1} {:>9} {:>10} {:>5} {:>5} {:<6} {:<3} {}\n",
            r.seq,
            r.kind,
            r.latency_ns as f64 / 1_000.0,
            r.elements_moved,
            r.bytes_tx,
            r.cache_hits,
            r.cache_misses,
            r.transport,
            if r.ok { "yes" } else { "NO" },
            r.line,
        ));
    }
    out
}

/// RAII guard: while held, a panic unwinding through the holder (a pool
/// poison surfaces as one) dumps the flight ring to stderr before the
/// process dies, preserving the last statements' context.
pub struct DumpOnPanic;

impl Drop for DumpOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let records = snapshot();
            if records.is_empty() {
                return;
            }
            eprintln!(
                "--- bcag flight recorder: last {} statements ---",
                records.len()
            );
            eprint!("{}", render(&records));
        }
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let cut = s
            .char_indices()
            .take_while(|(i, _)| *i + 1 < max)
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test here that reads the ring back: the ring is
    /// process-global and `cargo test` runs tests on parallel threads,
    /// so one test's `clear` could otherwise empty another's ring
    /// between its `record` and its `snapshot`.
    static RING_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_is_bounded_and_ordered() {
        let _serial = RING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        for i in 0..(CAPACITY + 10) {
            let b = Baseline::capture();
            record("rt.TEST", &format!("TEST {i}"), b, true);
        }
        let records = snapshot();
        assert_eq!(records.len(), CAPACITY);
        // Oldest entries displaced; survivors in sequence order.
        for w in records.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
        assert_eq!(
            records.last().unwrap().line,
            format!("TEST {}", CAPACITY + 9)
        );
        clear();
    }

    #[test]
    fn render_is_one_row_per_record() {
        let b = Baseline::capture();
        let rec = StatementRecord {
            seq: 1,
            kind: "rt.ASSIGN",
            line: "ASSIGN A(0:9:1) = B(0:9:1)".into(),
            latency_ns: 12_345,
            elements_moved: 10,
            bytes_tx: 80,
            cache_hits: 2,
            cache_misses: 1,
            transport: "shm",
            ok: true,
        };
        drop(b);
        let text = render(&[rec]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("rt.ASSIGN"), "{text}");
        assert!(text.contains("ASSIGN A(0:9:1)"), "{text}");
        let header = text.lines().next().unwrap();
        let row = text.lines().nth(1).unwrap();
        let col = |line: &str| line.split_whitespace().nth(7).map(str::to_string);
        assert_eq!(col(header).as_deref(), Some("xport"), "{text}");
        assert_eq!(col(row).as_deref(), Some("shm"), "{text}");
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("short", 10), "short");
        let t = truncate("éééééééééééééééééééé", 10);
        assert!(t.ends_with('…'));
        assert!(t.chars().count() < 12);
    }
}
