//! Locality analytics over compiled [`RunPlan`]s: reuse-distance
//! histogram, working-set size and bytes-touched-per-cache-line.
//!
//! The paper's access sequences are *address streams*; whether a schedule
//! is memory-bound depends on how those streams map onto cache lines. This
//! module replays a plan's traversal at cache-line granularity through a
//! small LRU stack and reports distribution-shaped locality metrics:
//!
//! * **reuse distance** — for every re-touch of a line, the number of
//!   *distinct* lines accessed since its previous touch (the classic LRU
//!   stack distance; a fully-associative cache of `C` lines hits exactly
//!   the re-touches with distance `< C`);
//! * **working set** — the count of distinct lines the traversal touches;
//! * **bytes per line** — distinct bytes touched divided by lines
//!   touched: 64 means every fetched line is fully consumed, 8 means a
//!   gap-64 stride wastes 87.5% of each fetch.
//!
//! Analysis is bounded by [`MAX_ANALYZED`] elements (one prefix of the
//! traversal), so compiling a plan for a huge array never turns into an
//! unbounded simulation. [`record`] folds the results into the active
//! `bcag-trace` session as the `reuse_distance_lines` histogram plus
//! `locality_*` counters.

use bcag_trace::Histogram;

use crate::runs::RunPlan;

/// Cache-line size the analysis assumes, in bytes.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Upper bound on traversal elements replayed per analysis.
pub const MAX_ANALYZED: usize = 1 << 14;

/// Distribution-shaped locality metrics of one plan traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityStats {
    /// Elements replayed (min of the plan's count and [`MAX_ANALYZED`]).
    pub elements: u64,
    /// Distinct cache lines touched — the working-set size in lines.
    pub lines: u64,
    /// Distinct bytes touched (`elements * elem_bytes`; traversal
    /// addresses are distinct within a plan).
    pub bytes_touched: u64,
    /// First-touch accesses (compulsory misses at line granularity).
    pub cold_misses: u64,
    /// LRU stack distances (in lines) of every line re-touch.
    pub reuse: Histogram,
}

impl LocalityStats {
    /// Average distinct bytes consumed per touched cache line (0 when the
    /// plan is empty). At most [`CACHE_LINE_BYTES`].
    pub fn bytes_per_line(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.bytes_touched as f64 / self.lines as f64
        }
    }
}

/// Replays (a bounded prefix of) the plan's address stream at cache-line
/// granularity and returns its locality metrics. `elem_bytes` is the
/// element width the addresses index (8 for the `f64`/`i64` arrays the
/// runtime moves).
pub fn analyze(plan: &RunPlan, elem_bytes: usize) -> LocalityStats {
    let elem_bytes = elem_bytes.max(1) as u64;
    // LRU stack of line addresses, most recently used at the back. The
    // working set of a strided traversal prefix is small (it grows only
    // on cold misses), so a linear scan beats fancier structures here,
    // mirroring the schedule cache's reasoning.
    let mut stack: Vec<u64> = Vec::new();
    let mut reuse = Histogram::new();
    let mut elements = 0u64;
    let mut cold = 0u64;
    plan.for_each_segment(|seg| {
        for j in 0..seg.len {
            if elements >= MAX_ANALYZED as u64 {
                return;
            }
            elements += 1;
            let byte_addr = (seg.addr + j * seg.gap) as u64 * elem_bytes;
            let line = byte_addr / CACHE_LINE_BYTES;
            // A multi-byte element can straddle a line; charging the
            // first line keeps the replay one-access-per-element.
            if let Some(pos) = stack.iter().rposition(|&l| l == line) {
                let distance = (stack.len() - 1 - pos) as u64;
                stack.remove(pos);
                stack.push(line);
                reuse.record(distance);
            } else {
                cold += 1;
                stack.push(line);
            }
        }
    });
    LocalityStats {
        elements,
        lines: stack.len() as u64,
        bytes_touched: elements * elem_bytes,
        cold_misses: cold,
        reuse,
    }
}

/// [`analyze`]s the plan and folds the results into the active trace
/// session: the `reuse_distance_lines` histogram plus the
/// `locality_elements` / `locality_lines_touched` /
/// `locality_bytes_touched` / `locality_cold_misses` counters. One
/// relaxed atomic load when tracing is disabled. Returns the stats so
/// callers can also inspect them directly.
pub fn record(plan: &RunPlan, elem_bytes: usize) -> Option<LocalityStats> {
    if !bcag_trace::enabled() {
        return None;
    }
    let stats = analyze(plan, elem_bytes);
    if stats.elements == 0 {
        return Some(stats);
    }
    bcag_trace::record_hist("reuse_distance_lines", &stats.reuse);
    bcag_trace::count("locality_elements", stats.elements);
    bcag_trace::count("locality_lines_touched", stats.lines);
    bcag_trace::count("locality_bytes_touched", stats.bytes_touched);
    bcag_trace::count("locality_cold_misses", stats.cold_misses);
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_plan(start: i64, last: i64, gap: i64) -> RunPlan {
        // A one-period gap table with a constant gap compiles to Uniform.
        RunPlan::compile(Some(start), last, &[gap, gap])
    }

    #[test]
    fn contiguous_traversal_fills_lines() {
        // 64 contiguous f64 elements = 512 bytes = 8 full lines.
        let plan = uniform_plan(0, 63, 1);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, 64);
        assert_eq!(s.lines, 8);
        assert_eq!(s.cold_misses, 8);
        assert_eq!(s.bytes_touched, 512);
        assert_eq!(s.bytes_per_line(), 64.0);
        // 8 elements share each line: 56 same-line re-touches at
        // distance 0.
        assert_eq!(s.reuse.count(), 56);
        assert_eq!(s.reuse.max(), 0);
    }

    #[test]
    fn wide_stride_wastes_lines() {
        // Gap 8 on f64: every element lands on its own line.
        let plan = uniform_plan(0, 8 * 31, 8);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, 32);
        assert_eq!(s.lines, 32);
        assert_eq!(s.cold_misses, 32);
        assert!(s.reuse.is_empty());
        assert_eq!(s.bytes_per_line(), 8.0);
    }

    #[test]
    fn cyclic_plan_interleaves_reuse() {
        // Two-run period: 4 contiguous then skip ahead — the skip
        // revisits no line, so reuse stays same-line spatial hits.
        let plan = RunPlan::compile(Some(0), 199, &[1, 1, 1, 17]);
        let s = analyze(&plan, 8);
        assert!(s.elements > 0);
        assert!(s.lines >= s.cold_misses.min(s.lines));
        assert_eq!(s.cold_misses + s.reuse.count(), s.elements);
    }

    #[test]
    fn empty_plan_yields_zeroes() {
        let s = analyze(&RunPlan::empty(), 8);
        assert_eq!(s.elements, 0);
        assert_eq!(s.lines, 0);
        assert_eq!(s.bytes_per_line(), 0.0);
        assert!(s.reuse.is_empty());
    }

    #[test]
    fn analysis_is_bounded() {
        let plan = uniform_plan(0, i64::MAX / 4, 1);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, MAX_ANALYZED as u64);
    }

    #[test]
    fn record_lands_histogram_and_counters_in_trace() {
        let plan = uniform_plan(0, 63, 1);
        let ((), trace) = bcag_trace::capture(|| {
            let stats = record(&plan, 8).expect("tracing enabled");
            assert_eq!(stats.lines, 8);
        });
        assert_eq!(trace.counter_total("locality_lines_touched"), 8);
        assert_eq!(trace.counter_total("locality_elements"), 64);
        let h = trace.histogram_total("reuse_distance_lines");
        assert_eq!(h.count(), 56);
    }

    #[test]
    fn record_is_inert_when_disabled() {
        // No capture session: must not record (and must not panic).
        assert!(record(&uniform_plan(0, 9, 1), 8).is_none());
    }
}
