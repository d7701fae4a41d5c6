//! Run-length compilation of gap tables — contiguity analysis.
//!
//! The paper's `AM` table drives the node loop one element at a time:
//! `addr += deltaM[i]`. But whenever `s < k` the owned elements cluster:
//! inside one course the stride-`s` hits are `s` apart, and for `s == 1`
//! they are *contiguous*. This module folds a gap table into a [`RunPlan`]
//! — a cyclic list of constant-gap [`Run`]s — so traversal clients can
//! replace the per-element walk with a handful of slice operations per
//! period: `memcpy` for unit-gap runs, a tight strided loop otherwise.
//!
//! Compilation preserves the access sequence **exactly**: expanding a
//! `RunPlan` reproduces, element by element, the address stream of the
//! per-element walk over `(start, last, AM)` (property-tested against the
//! table-free [`crate::walker`] oracle). Three shapes get closed forms:
//!
//! * [`RunShape::Single`] — `AM` is empty: exactly one element (`p·k ∤ s`
//!   never produces this, but single-element sections do);
//! * [`RunShape::Uniform`] — every gap equal (covers `s == 1` dense
//!   memory, and every `s | k` intra-block pattern, e.g. the `s = 2`
//!   half-stride case): the whole traversal is **one** arithmetic
//!   progression, `gap == 1` being a single `memcpy`;
//! * [`RunShape::Cyclic`] — the general case: maximal constant-gap runs,
//!   split at the period boundary so the decomposition is exactly
//!   periodic and anchored at `start`.
//!
//! The decomposition never lets a wide-gap run "steal" the first element
//! of a following unit run — unit runs are the memcpy currency, so the
//! grouping keeps them maximal.

/// One constant-gap run inside a cyclic [`RunPlan`]: `len` elements spaced
/// `gap` apart, then `skip` from the run's last element to the next run's
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Number of elements in the run (`>= 1`).
    pub len: i64,
    /// Local-address step between consecutive elements (`1` = contiguous).
    /// Conventionally `1` for single-element runs.
    pub gap: i64,
    /// Step from this run's last element to the next run's first element.
    pub skip: i64,
}

/// The contiguity class of a compiled gap table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunShape {
    /// The node owns nothing; the traversal is empty.
    Empty,
    /// `delta_m` is empty: exactly one element, at `start`.
    Single,
    /// Every gap equals `gap`: the whole traversal is one arithmetic
    /// progression from `start` to `last`.
    Uniform {
        /// The common gap (`1` = the traversal is one contiguous slice).
        gap: i64,
    },
    /// General periodic case: the runs of one table period, in order,
    /// anchored at `start`. `sum(run.len) == delta_m.len()`.
    Cyclic(Vec<Run>),
}

/// One expanded segment of a traversal: `len` elements at
/// `addr, addr + gap, …, addr + (len-1)·gap`, all `<= last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First local address of the segment.
    pub addr: i64,
    /// Address step inside the segment (`1` = contiguous).
    pub gap: i64,
    /// Number of elements (`>= 1`).
    pub len: i64,
}

/// A gap table compiled to runs: the run-coalesced form of a node plan's
/// `(start, last, AM)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPlan {
    start: i64,
    last: i64,
    shape: RunShape,
}

impl RunPlan {
    /// The empty plan (a node that owns nothing).
    pub fn empty() -> RunPlan {
        RunPlan {
            start: 0,
            last: -1,
            shape: RunShape::Empty,
        }
    }

    /// Compiles `(start, last, delta_m)` — the node-plan triple of
    /// [`crate::pattern::AccessPattern`] traversals — into runs.
    ///
    /// `start == None` (or `start > last`) yields the empty plan. Gaps
    /// must be strictly positive (the pattern invariant).
    pub fn compile(start: Option<i64>, last: i64, delta_m: &[i64]) -> RunPlan {
        let Some(start) = start else {
            return RunPlan::empty();
        };
        if start > last {
            return RunPlan::empty();
        }
        if delta_m.is_empty() {
            return RunPlan {
                start,
                last,
                shape: RunShape::Single,
            };
        }
        debug_assert!(delta_m.iter().all(|&g| g > 0), "gaps must be positive");
        let g0 = delta_m[0];
        if delta_m.iter().all(|&g| g == g0) {
            return RunPlan {
                start,
                last,
                shape: RunShape::Uniform { gap: g0 },
            };
        }
        RunPlan {
            start,
            last,
            shape: RunShape::Cyclic(group_runs(delta_m)),
        }
    }

    /// `true` when the traversal visits nothing.
    pub fn is_empty(&self) -> bool {
        matches!(self.shape, RunShape::Empty)
    }

    /// The contiguity class.
    pub fn shape(&self) -> &RunShape {
        &self.shape
    }

    /// First local address, when non-empty.
    pub fn start(&self) -> Option<i64> {
        (!self.is_empty()).then_some(self.start)
    }

    /// Inclusive last local address bound of the traversal.
    pub fn last(&self) -> i64 {
        self.last
    }

    /// Number of runs per table period (`0` when empty, `1` for the
    /// closed-form shapes). The coalescing factor is
    /// `delta_m.len() / runs_per_period()`.
    pub fn runs_per_period(&self) -> usize {
        match &self.shape {
            RunShape::Empty => 0,
            RunShape::Single | RunShape::Uniform { .. } => 1,
            RunShape::Cyclic(runs) => runs.len(),
        }
    }

    /// Elements per gap-table period — the `delta_m` length the plan was
    /// compiled from (`0` when empty, `1` for the closed-form shapes,
    /// which repeat a one-gap period). The average run length is
    /// `period_elements() / runs_per_period()`.
    pub fn period_elements(&self) -> usize {
        match &self.shape {
            RunShape::Empty => 0,
            RunShape::Single | RunShape::Uniform { .. } => 1,
            RunShape::Cyclic(runs) => runs.iter().map(|r| r.len as usize).sum(),
        }
    }

    /// Exact number of elements the traversal visits, in closed form over
    /// whole periods plus one partial-period walk.
    pub fn count(&self) -> usize {
        match &self.shape {
            RunShape::Empty => 0,
            RunShape::Single => 1,
            RunShape::Uniform { gap } => ((self.last - self.start) / gap + 1) as usize,
            RunShape::Cyclic(runs) => {
                let advance: i64 = runs.iter().map(|r| (r.len - 1) * r.gap + r.skip).sum();
                let per_period: i64 = runs.iter().map(|r| r.len).sum();
                let q = (self.last - self.start) / advance;
                let mut n = q * per_period;
                let mut addr = self.start + q * advance;
                for r in runs {
                    if addr > self.last {
                        break;
                    }
                    let avail = (self.last - addr) / r.gap + 1;
                    n += avail.min(r.len);
                    if avail < r.len {
                        break;
                    }
                    addr += (r.len - 1) * r.gap + r.skip;
                }
                n as usize
            }
        }
    }

    /// Calls `f` for every traversal segment, in access order, clamped to
    /// `last`. This is the hot-path expansion: clients turn each
    /// [`Segment`] into one slice copy or one strided loop.
    pub fn for_each_segment(&self, mut f: impl FnMut(Segment)) {
        match &self.shape {
            RunShape::Empty => {}
            RunShape::Single => f(Segment {
                addr: self.start,
                gap: 1,
                len: 1,
            }),
            RunShape::Uniform { gap } => f(Segment {
                addr: self.start,
                gap: *gap,
                len: (self.last - self.start) / gap + 1,
            }),
            RunShape::Cyclic(runs) => {
                let mut addr = self.start;
                'outer: loop {
                    for r in runs {
                        if addr > self.last {
                            break 'outer;
                        }
                        let avail = (self.last - addr) / r.gap + 1;
                        let take = avail.min(r.len);
                        f(Segment {
                            addr,
                            gap: r.gap,
                            len: take,
                        });
                        if take < r.len {
                            break 'outer;
                        }
                        addr += (r.len - 1) * r.gap + r.skip;
                    }
                }
            }
        }
    }

    /// Expands the plan to the full element-by-element address sequence —
    /// the test oracle for the exactness obligation.
    pub fn expand(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each_segment(|seg| {
            out.extend((0..seg.len).map(|j| seg.addr + j * seg.gap));
        });
        out
    }
}

/// Records the run-coalescing trace counters for a traversal that executed
/// `segments` coalesced (multi-element) segments covering `elements`
/// elements. The average coalesced run length is
/// `run_len_total / runs_coalesced`. No-op when nothing coalesced.
pub fn count_coalesced(segments: u64, elements: u64) {
    if segments > 0 {
        bcag_trace::count("runs_coalesced", segments);
        bcag_trace::count("run_len_total", elements);
    }
}

/// Greedy maximal constant-gap grouping of one table period. Element `i`
/// has forward gap `delta_m[i]`; a run of elements `a..=b` uses gaps
/// `a..b` internally (all equal) and `delta_m[b]` as its skip. Runs never
/// cross the period boundary, so the decomposition tiles exactly.
fn group_runs(delta_m: &[i64]) -> Vec<Run> {
    let n = delta_m.len();
    let mut runs = Vec::new();
    let mut a = 0usize;
    while a < n {
        let g = delta_m[a];
        let mut b = a;
        // Absorb element b+1 while its connecting gap matches — except a
        // wide-gap run must not steal the head of a unit run (the element
        // whose own forward gap is 1 belongs to the contiguous block it
        // starts, unless it is the period's final element).
        while b + 1 < n && delta_m[b] == g && (g == 1 || delta_m[b + 1] != 1 || b + 1 == n - 1) {
            b += 1;
        }
        runs.push(Run {
            len: (b - a + 1) as i64,
            gap: if b > a { g } else { 1 },
            skip: delta_m[b],
        });
        a = b + 1;
    }
    debug_assert_eq!(runs.iter().map(|r| r.len).sum::<i64>(), n as i64);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference per-element walk: the contract every shape must match.
    fn walk(start: Option<i64>, last: i64, delta_m: &[i64]) -> Vec<i64> {
        let Some(start) = start else { return vec![] };
        let mut out = Vec::new();
        let mut addr = start;
        let mut i = 0usize;
        while addr <= last {
            out.push(addr);
            if delta_m.is_empty() {
                break;
            }
            addr += delta_m[i];
            i += 1;
            if i == delta_m.len() {
                i = 0;
            }
        }
        out
    }

    fn check(start: Option<i64>, last: i64, delta_m: &[i64]) -> RunPlan {
        let plan = RunPlan::compile(start, last, delta_m);
        let expect = walk(start, last, delta_m);
        assert_eq!(
            plan.expand(),
            expect,
            "start={start:?} last={last} AM={delta_m:?}"
        );
        assert_eq!(plan.count(), expect.len());
        plan
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        assert!(RunPlan::compile(None, 100, &[1, 2]).is_empty());
        assert!(RunPlan::compile(Some(5), 4, &[1]).is_empty());
        assert_eq!(RunPlan::empty().expand(), Vec::<i64>::new());
        assert_eq!(RunPlan::empty().count(), 0);
        assert_eq!(RunPlan::empty().runs_per_period(), 0);
        // delta_m empty: exactly one element.
        let single = check(Some(7), 7, &[]);
        assert_eq!(single.shape(), &RunShape::Single);
        assert_eq!(single.expand(), vec![7]);
    }

    #[test]
    fn dense_is_one_memcpy_segment() {
        let plan = check(Some(3), 42, &[1]);
        assert_eq!(plan.shape(), &RunShape::Uniform { gap: 1 });
        let mut segs = Vec::new();
        plan.for_each_segment(|s| segs.push(s));
        assert_eq!(
            segs,
            vec![Segment {
                addr: 3,
                gap: 1,
                len: 40
            }]
        );
    }

    #[test]
    fn uniform_stride_is_one_segment() {
        // s=2 | k: gaps are all 2 — the half-stride bench case.
        let plan = check(Some(0), 1023, &[2, 2, 2, 2]);
        assert_eq!(plan.shape(), &RunShape::Uniform { gap: 2 });
        assert_eq!(plan.runs_per_period(), 1);
        assert_eq!(plan.count(), 512);
    }

    #[test]
    fn figure6_table_groups_exactly() {
        // The paper's worked example: p=4, k=8, l=4, s=9, proc 1 —
        // AM = [3,12,15,12,3,12,3,12], start 5 (local), varied bounds.
        let am = [3i64, 12, 15, 12, 3, 12, 3, 12];
        for last in [5, 8, 20, 35, 50, 77, 100, 200, 500] {
            check(Some(5), last, &am);
        }
    }

    #[test]
    fn unit_runs_are_not_stolen() {
        // [5,1,1,1,9]: the 5-gap element must stay a singleton so the
        // unit run keeps all four of its elements.
        let plan = check(Some(0), 200, &[5, 1, 1, 1, 9]);
        let RunShape::Cyclic(runs) = plan.shape() else {
            panic!("expected cyclic");
        };
        assert_eq!(
            runs,
            &vec![
                Run {
                    len: 1,
                    gap: 1,
                    skip: 5
                },
                Run {
                    len: 4,
                    gap: 1,
                    skip: 9
                },
            ]
        );
    }

    #[test]
    fn wide_gap_runs_coalesce() {
        // [3,3,3,10]: one gap-3 run of 4 elements, then the skip.
        let plan = check(Some(2), 300, &[3, 3, 3, 10]);
        let RunShape::Cyclic(runs) = plan.shape() else {
            panic!("expected cyclic");
        };
        assert_eq!(
            runs,
            &vec![Run {
                len: 4,
                gap: 3,
                skip: 10
            }]
        );
    }

    #[test]
    fn period_final_unit_gap_is_absorbed() {
        // [5,5,1]: trailing gap-1 is the period-boundary skip, so the
        // gap-5 run may absorb the final element.
        let plan = check(Some(0), 120, &[5, 5, 1]);
        let RunShape::Cyclic(runs) = plan.shape() else {
            panic!("expected cyclic");
        };
        assert_eq!(
            runs,
            &vec![Run {
                len: 3,
                gap: 5,
                skip: 1
            }]
        );
    }

    #[test]
    fn clamping_stops_mid_run_and_mid_period() {
        // Force the bound inside a run and between runs.
        let am = [1i64, 1, 7, 2, 2, 19];
        for last in 0..=120 {
            check(Some(0), last, &am);
        }
    }

    #[test]
    fn expansion_matches_walk_on_mixed_tables() {
        for (start, last, am) in [
            (0i64, 97i64, vec![1i64, 1, 1, 5]),
            (11, 400, vec![2, 2, 9, 1, 1, 1, 4]),
            (0, 63, vec![7]),
            (3, 3, vec![4, 4]),
            (0, 1000, vec![1, 2, 1, 2, 10]),
        ] {
            check(Some(start), last, &am);
        }
    }
}
