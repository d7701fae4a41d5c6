//! Schedule construction: which elements move between which nodes.
//!
//! Communication sets are periodic. In `A(l_a:u_a:s_a) = B(l_b:u_b:s_b)`
//! on `p` nodes, let `P_x = p·k_x / gcd(s_x, p·k_x)` be one side's period
//! in section ranks ([`Problem::period_elements`]) and `L = lcm(P_a, P_b)`.
//! Ranks `t` and `t + L` then have the same (source, destination) pair,
//! and between them both local addresses advance by constants: `L·s_b/p`
//! on the source and `L·s_a/p` on the destination.
//!
//! A [`CommSchedule`] stores exactly that: per (source, destination)
//! pair, the run-coalesced transfers ([`TransferRun`]) of the first
//! `E = min(L, n)` ranks, in one flat CSR buffer with rows
//! `src · p + dst` ([`crate::csr::Csr`]), and two counts — the pair's
//! transfers in the period and in the tail, the prefix of the period that
//! the last, partial period repeats; per schedule, the repeat count
//! `R = ⌊n / L⌋` and the two per-period deltas. Building walks each
//! source's AM table over `E` ranks instead of `n`, so neither its time
//! nor the cached schedule grows with the number of periods the section
//! spans. When `L ≥ n` the period is the whole section (`R ≤ 1`, and the
//! tail holds everything when `R = 0`) — the same code path.
//!
//! Readers expand on demand: [`CommSchedule::transfer_runs`] yields the
//! period's runs `R` times, each shifted by `r·(ΔB, ΔA)`, then the tail,
//! and merges a period's first run into the previous period's last run
//! when the gaps continue, so a dense copy stays one run.
//! [`CommSchedule::pair_len`] and the totals are closed forms of the
//! counts.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::{build, Method};
use bcag_core::numth::{self, gcd};
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::Layout;

use crate::csr::Csr;

/// One element transfer: local address on the source, local address on the
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Local address in the source processor's memory (RHS array).
    pub src_local: i64,
    /// Local address in the destination processor's memory (LHS array).
    pub dst_local: i64,
}

/// A maximal group of consecutive transfers whose source and destination
/// addresses both advance by constant gaps — the communication-set twin of
/// [`bcag_core::runs::Run`]. Transfer `j` of the run moves
/// `src_local + j·sgap` → `dst_local + j·dgap`; `(1, 1)` runs are straight
/// `memcpy`s on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRun {
    /// First source local address.
    pub src_local: i64,
    /// First destination local address.
    pub dst_local: i64,
    /// Number of transfers in the run (`>= 1`).
    pub len: i64,
    /// Source-side address step (`1` = contiguous read).
    pub sgap: i64,
    /// Destination-side address step (`1` = contiguous write).
    pub dgap: i64,
}

/// Transfer counts of one (source, destination) pair.
#[derive(Debug, Clone, Copy, Default)]
struct PairCount {
    /// Transfers in one period.
    period: usize,
    /// Transfers in the tail: the period's first `tail` transfers.
    tail: usize,
    /// Runs the tail touches: the period's first `tail_runs` runs.
    tail_runs: usize,
    /// Length of the tail's last run, cut from the period's.
    tail_cut: i64,
}

impl PairCount {
    /// The counts of a pair whose period compiles to `runs` and whose tail
    /// holds the first `tail` transfers.
    fn new(runs: &[TransferRun], tail: usize) -> PairCount {
        let period = runs.iter().map(|r| r.len as usize).sum();
        let (mut tail_runs, mut tail_cut, mut left) = (0, 0, tail as i64);
        while left > 0 {
            tail_cut = left.min(runs[tail_runs].len);
            left -= tail_cut;
            tail_runs += 1;
        }
        PairCount {
            period,
            tail,
            tail_runs,
            tail_cut,
        }
    }
}

/// The communication schedule for one array assignment in period form:
/// for each (source, destination) pair, the run-coalesced transfers of
/// one period, stored as one flat CSR buffer with rows indexed
/// `src * p + dst`, repeated `repeats` times at a constant address
/// advance and followed by a tail. Cached with its statement by
/// [`crate::cache`]; its size does not depend on the section length.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    p: i64,
    /// Row `src * p + dst`: the greedy constant-gap runs of the pair's
    /// transfers in the first `min(L, n)` section ranks, in rank order.
    runs: Csr<TransferRun>,
    /// Per-pair transfer counts, same indexing as `runs`.
    counts: Vec<PairCount>,
    /// Whole periods in the section, `⌊n / L⌋`.
    repeats: i64,
    /// Per-period local-address advance: (source, destination).
    delta: (i64, i64),
}

/// Greedy maximal constant-gap grouping of one transfer row (the
/// communication-set analogue of `bcag_core::runs`). A run absorbs the
/// next transfer while both address gaps stay constant; a non-unit run
/// never steals the head of a following `(1, 1)` run, so the memcpy runs
/// stay maximal.
fn compile_transfer_runs(trs: &[Transfer], out: &mut Vec<TransferRun>) {
    out.clear();
    let gaps = |a: &Transfer, b: &Transfer| (b.src_local - a.src_local, b.dst_local - a.dst_local);
    let n = trs.len();
    let mut i = 0usize;
    while i < n {
        let mut len = 1i64;
        let mut sgap = 1i64;
        let mut dgap = 1i64;
        if i + 1 < n {
            let g = gaps(&trs[i], &trs[i + 1]);
            // Start a multi-transfer run only if the gaps are positive and
            // either unit-unit (always worth a memcpy) or confirmed by a
            // second matching pair (don't steal a lone element).
            let viable = g.0 > 0
                && g.1 > 0
                && (g == (1, 1) || (i + 2 < n && gaps(&trs[i + 1], &trs[i + 2]) == g));
            if viable {
                (sgap, dgap) = g;
                let mut j = i + 1;
                while j + 1 < n
                    && gaps(&trs[j], &trs[j + 1]) == g
                    && (g == (1, 1) || j + 2 >= n || gaps(&trs[j + 1], &trs[j + 2]) != (1, 1))
                {
                    j += 1;
                }
                len = (j - i + 1) as i64;
            }
        }
        out.push(TransferRun {
            src_local: trs[i].src_local,
            dst_local: trs[i].dst_local,
            len,
            sgap,
            dgap,
        });
        i += len as usize;
    }
}

/// The gaps of `cur` followed by `next` as one constant-gap run, if the
/// step from `cur`'s last transfer to `next`'s first is positive and
/// matches the gaps of every multi-transfer side.
fn join_gap(cur: &TransferRun, next: &TransferRun) -> Option<(i64, i64)> {
    let g = (
        next.src_local - (cur.src_local + (cur.len - 1) * cur.sgap),
        next.dst_local - (cur.dst_local + (cur.len - 1) * cur.dgap),
    );
    let fits = |r: &TransferRun| r.len == 1 || (r.sgap, r.dgap) == g;
    (g.0 > 0 && g.1 > 0 && fits(cur) && fits(next)).then_some(g)
}

/// The run expansion of one (source, destination) pair, in section-rank
/// order: the period's runs `repeats` times, the `r`-th copy shifted by
/// `r·delta`, then the tail, the period's first runs with the last one
/// cut short. A copy's last run absorbs the next copy's first run when
/// the gaps continue across the boundary. Returned by
/// [`CommSchedule::transfer_runs`].
#[derive(Debug, Clone)]
pub struct TransferRuns<'a> {
    period: &'a [TransferRun],
    /// Runs of the current copy not yet yielded.
    left: &'a [TransferRun],
    delta: (i64, i64),
    /// Whole copies of the period; copy number `repeats` is the tail.
    repeats: i64,
    /// The current copy.
    rep: i64,
    /// Address shift of the current copy, `rep·delta`.
    shift: (i64, i64),
    tail_runs: usize,
    tail_cut: i64,
    /// The gap across a boundary between whole copies, and into the tail,
    /// when the runs on both sides join.
    join_whole: Option<(i64, i64)>,
    join_tail: Option<(i64, i64)>,
    /// Runs not yet yielded.
    remaining: usize,
}

impl TransferRuns<'_> {
    /// `run` moved into the current copy.
    #[inline]
    fn shifted(&self, run: &TransferRun) -> TransferRun {
        TransferRun {
            src_local: run.src_local + self.shift.0,
            dst_local: run.dst_local + self.shift.1,
            ..*run
        }
    }

    /// Steps to the next copy that holds a transfer; false at the end.
    /// Shifts only into such a copy, so every address it forms is real.
    fn advance(&mut self) -> bool {
        let next = self.rep + 1;
        let runs = match next.cmp(&self.repeats) {
            std::cmp::Ordering::Less => self.period,
            std::cmp::Ordering::Equal => &self.period[..self.tail_runs],
            std::cmp::Ordering::Greater => return false,
        };
        if runs.is_empty() {
            return false;
        }
        self.rep = next;
        self.left = runs;
        self.shift = (self.shift.0 + self.delta.0, self.shift.1 + self.delta.1);
        true
    }

    /// Pops the current copy's next run, shifted, and cut if it ends the
    /// tail.
    fn take(&mut self) -> TransferRun {
        let (run, rest) = self.left.split_first().expect("a run is left");
        self.left = rest;
        let mut run = self.shifted(run);
        if rest.is_empty() && self.rep == self.repeats {
            run.len = self.tail_cut;
        }
        run
    }

    /// The gap into the next copy, when the current copy's last run joins
    /// its first.
    fn boundary_gap(&self) -> Option<(i64, i64)> {
        match (self.rep + 1).cmp(&self.repeats) {
            std::cmp::Ordering::Less => self.join_whole,
            std::cmp::Ordering::Equal => self.join_tail,
            std::cmp::Ordering::Greater => None,
        }
    }

    /// [`Iterator::next`] at the end of a copy: the copy's last run, cut
    /// in the tail, absorbing the next copy's first run while the gaps
    /// continue. Kept out of line so that `next`'s per-run path stays
    /// small enough to inline into the compiler's loops.
    #[inline(never)]
    fn next_at_boundary(&mut self) -> Option<TransferRun> {
        if self.left.is_empty() && !self.advance() {
            return None;
        }
        self.remaining -= 1;
        let mut run = self.take();
        while self.left.is_empty() {
            let Some((sgap, dgap)) = self.boundary_gap() else {
                // Step into the next copy now, so that its runs take the
                // fast path.
                self.advance();
                break;
            };
            if self.period.len() == 1 && self.rep + 2 < self.repeats {
                // One run per period: every later whole copy joins the
                // same way, so take them at once.
                let skip = self.repeats - 2 - self.rep;
                run.len += skip * self.period[0].len;
                self.rep += skip;
                self.shift = (self.rep * self.delta.0, self.rep * self.delta.1);
            }
            self.advance();
            let next = self.take();
            run = TransferRun {
                len: run.len + next.len,
                sgap,
                dgap,
                ..run
            };
        }
        Some(run)
    }
}

impl Iterator for TransferRuns<'_> {
    type Item = TransferRun;

    #[inline]
    fn next(&mut self) -> Option<TransferRun> {
        match self.left {
            // Inside a copy: no cut, no boundary.
            [run, rest @ ..] if !rest.is_empty() => {
                self.left = rest;
                self.remaining -= 1;
                Some(self.shifted(run))
            }
            // A whole copy's last run, before another whole copy it does
            // not join.
            [run] if self.rep + 1 < self.repeats && self.join_whole.is_none() => {
                let run = self.shifted(run);
                self.rep += 1;
                self.left = self.period;
                self.shift = (self.shift.0 + self.delta.0, self.shift.1 + self.delta.1);
                self.remaining -= 1;
                Some(run)
            }
            _ => self.next_at_boundary(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TransferRuns<'_> {}

/// One (source, destination) pair's transfers in period form, as
/// [`CommSchedule::pair_period`] returns them: `runs` in section-rank
/// order, `repeats` times, the `r`-th copy shifted by `r·delta`; then the
/// tail, the first `tail_runs` runs shifted by `repeats·delta`, the last
/// one cut to `tail_cut` transfers. `delta` is `(0, 0)` unless the
/// section spans more than one period.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairPeriod<'a> {
    pub runs: &'a [TransferRun],
    pub repeats: i64,
    pub delta: (i64, i64),
    pub tail_runs: usize,
    pub tail_cut: i64,
}

/// Closed-form `p × p` message matrix: `get(src, dst)` is the number of
/// elements moving from `src` to `dst`, stored flat (row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageMatrix {
    p: i64,
    counts: Vec<i64>,
}

impl MessageMatrix {
    /// Machine size.
    pub fn p(&self) -> i64 {
        self.p
    }

    /// Elements moving from `src` to `dst`.
    pub fn get(&self, src: i64, dst: i64) -> i64 {
        self.counts[(src * self.p + dst) as usize]
    }

    /// Row `src`: per-destination counts as a slice.
    pub fn row(&self, src: i64) -> &[i64] {
        let base = (src * self.p) as usize;
        &self.counts[base..base + self.p as usize]
    }

    /// All `(src, dst, count)` entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as i64 / self.p, i as i64 % self.p, n))
    }

    /// Total element count (equals the section size).
    pub fn total(&self) -> i64 {
        self.counts.iter().sum()
    }
}

/// Section ranks per period of one side: `p·k / gcd(s, p·k)`.
pub(crate) fn rank_period(p: i64, k: i64, s: i64) -> Result<i64> {
    let pk = numth::mul(p, k)?;
    Ok(pk / gcd(s, pk))
}

impl CommSchedule {
    /// The schedule of an empty section: `p²` empty pairs.
    fn empty(p: i64, rows: usize) -> CommSchedule {
        CommSchedule {
            p,
            runs: Csr::empty(rows),
            counts: vec![PairCount::default(); rows],
            repeats: 0,
            delta: (0, 0),
        }
    }

    /// Builds the schedule for `A(sec_a) = B(sec_b)` where `A` is laid out
    /// `(p, k_a)` and `B` is `(p, k_b)`. Both sections must have the same
    /// element count and ascending strides. Walks each source's AM table
    /// over one period of section ranks, `min(L, n)`.
    pub fn build(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
        method: Method,
    ) -> Result<CommSchedule> {
        let _sp = bcag_trace::span("comm.build");
        let sched = Self::build_period(p, k_a, sec_a, k_b, sec_b, method)?;
        bcag_trace::record("schedule_bytes", sched.heap_bytes() as u64);
        Ok(sched)
    }

    fn build_period(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
        method: Method,
    ) -> Result<CommSchedule> {
        let rows = check_statement(p, k_a, sec_a, sec_b)?;
        let n = sec_b.count();
        if n == 0 {
            return Ok(CommSchedule::empty(p, rows));
        }
        let problem_b = Problem::new(p, k_b, sec_b.l, sec_b.s)?;
        let period_a = rank_period(p, k_a, sec_a.s)?;
        let period_b = problem_b.period_elements();
        // An `L` past `i64` is past every section: one period covers it.
        let l = numth::lcm(period_a, period_b).unwrap_or(i64::MAX);
        let e = l.min(n);
        let repeats = n / l;
        let tail_ranks = n - repeats * l;
        // `Δ = (L / P)·(k·s / gcd(s, p·k)) = L·s/p` on each side. Only a
        // second period is shifted, and then rank `L` exists, so both are
        // differences of real local addresses; `L·s/p` itself may leave
        // `i64` when `L = n`.
        let delta = if n > l {
            let local_a = numth::mul(sec_a.s / gcd(sec_a.s, p * k_a), k_a)?;
            (
                numth::mul(l / period_b, problem_b.period_local())?,
                numth::mul(l / period_a, local_a)?,
            )
        } else {
            (0, 0)
        };
        let last_b = sec_b.l + (e - 1) * sec_b.s;
        let pn = p as usize;
        let lay_a = Layout::from_raw(p, k_a);
        let mut runs = Csr::builder();
        let mut counts = Vec::with_capacity(rows);
        // Scratch reused across sources: transfers tagged with their
        // destination, then scattered into destination order by a stable
        // counting sort — no per-pair vectors anywhere.
        let mut tagged: Vec<(usize, Transfer)> = Vec::new();
        let mut slots: Vec<Transfer> = Vec::new();
        let mut cursor: Vec<usize> = vec![0; pn];
        let mut tails: Vec<usize> = vec![0; pn];
        let mut row_runs: Vec<TransferRun> = Vec::new();
        for src in 0..p {
            // Enumerate the RHS elements owned by `src` with the core
            // algorithm, bounded by the period's last element.
            let pat = build(&problem_b, src, method)?;
            tagged.clear();
            cursor.fill(0);
            tails.fill(0);
            for acc in pat.iter_to(last_b) {
                let t = (acc.global - sec_b.l) / sec_b.s; // section rank
                let a_elem = sec_a.l + t * sec_a.s;
                let dst = lay_a.owner(a_elem) as usize;
                tagged.push((
                    dst,
                    Transfer {
                        src_local: acc.local,
                        dst_local: lay_a.local_addr(a_elem),
                    },
                ));
                cursor[dst] += 1;
                tails[dst] += usize::from(t < tail_ranks);
            }
            // Exclusive prefix sum: cursor[d] becomes row d's write position.
            let mut next = 0usize;
            for c in cursor.iter_mut() {
                let n = *c;
                *c = next;
                next += n;
            }
            slots.clear();
            slots.resize(
                tagged.len(),
                Transfer {
                    src_local: 0,
                    dst_local: 0,
                },
            );
            for &(dst, tr) in &tagged {
                slots[cursor[dst]] = tr;
                cursor[dst] += 1;
            }
            // cursor[d] now holds row d's end offset.
            let mut begin = 0usize;
            for (&end, &tail) in cursor.iter().zip(&tails) {
                compile_transfer_runs(&slots[begin..end], &mut row_runs);
                runs.extend_row(&row_runs);
                runs.finish_row();
                counts.push(PairCount::new(&row_runs, tail));
                begin = end;
            }
        }
        Ok(CommSchedule {
            p,
            runs: runs.finish(rows),
            counts,
            repeats,
            delta,
        })
    }

    /// Builds the same schedule in closed form, without enumerating the
    /// section: the ranks `t` whose B-element lives on `src` form one
    /// arithmetic progression per owned offset class (step `pk_b / d_b`),
    /// and likewise for the A-element on `dst`; each (class, class) pair
    /// intersects by the Chinese Remainder construction
    /// ([`bcag_core::intersect`]). Cost is `O(p² · k_a·k_b)` pair setup plus
    /// the output size. Stores every pair's whole row as a single period
    /// (`R = 0`), so it is an oracle independent of [`CommSchedule::build`].
    pub fn build_lattice(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
    ) -> Result<CommSchedule> {
        use bcag_core::intersect::{intersect, Ap};
        use bcag_core::start::first_cycle_locs;

        let _sp = bcag_trace::span("comm.build_lattice");
        let rows = check_statement(p, k_a, sec_a, sec_b)?;
        let t_max = sec_b.count() - 1;
        if t_max < 0 {
            return Ok(CommSchedule::empty(p, rows));
        }
        let problem_a = Problem::new(p, k_a, sec_a.l, sec_a.s)?;
        let problem_b = Problem::new(p, k_b, sec_b.l, sec_b.s)?;
        let lay_a = Layout::new(&problem_a);
        let lay_b = Layout::new(&problem_b);
        let step_a = problem_a.period_elements(); // rank-space step, A side
        let step_b = problem_b.period_elements(); // rank-space step, B side

        // Rank-space progressions per processor: one AP per owned class.
        let rank_aps = |problem: &Problem, sec: &RegularSection, m: i64| -> Result<Vec<i64>> {
            Ok(first_cycle_locs(problem, m)?
                .into_iter()
                .map(|loc| (loc - sec.l) / sec.s)
                .collect())
        };

        // The A-side classes depend only on the destination — compute them
        // once instead of once per (src, dst) pair.
        let a_classes_by_dst: Vec<Vec<i64>> = (0..p)
            .map(|dst| rank_aps(&problem_a, sec_a, dst))
            .collect::<Result<_>>()?;

        let mut runs = Csr::builder();
        let mut counts = Vec::with_capacity(rows);
        let mut ts: Vec<i64> = Vec::new(); // scratch reused across pairs
        let mut row: Vec<Transfer> = Vec::new();
        let mut row_runs: Vec<TransferRun> = Vec::new();
        for src in 0..p {
            let b_classes = rank_aps(&problem_b, sec_b, src)?;
            for (dst, a_classes) in a_classes_by_dst.iter().enumerate() {
                ts.clear();
                for &tb in &b_classes {
                    let ap_b = Ap::new(tb, step_b);
                    for &ta in a_classes {
                        let ap_a = Ap::new(ta, step_a);
                        if let Some(common) = intersect(&ap_b, &ap_a) {
                            ts.reserve(common.count_to(t_max) as usize);
                            ts.extend(common.iter_to(t_max));
                        }
                    }
                }
                ts.sort_unstable();
                row.clear();
                for &t in &ts {
                    let b_elem = sec_b.l + t * sec_b.s;
                    let a_elem = sec_a.l + t * sec_a.s;
                    debug_assert_eq!(lay_b.owner(b_elem), src);
                    debug_assert_eq!(lay_a.owner(a_elem), dst as i64);
                    row.push(Transfer {
                        src_local: lay_b.local_addr(b_elem),
                        dst_local: lay_a.local_addr(a_elem),
                    });
                }
                compile_transfer_runs(&row, &mut row_runs);
                runs.extend_row(&row_runs);
                runs.finish_row();
                counts.push(PairCount::new(&row_runs, row.len()));
            }
        }
        Ok(CommSchedule {
            p,
            runs: runs.finish(rows),
            counts,
            repeats: 0,
            delta: (0, 0),
        })
    }

    /// Computes only the **message matrix** — `get(src, dst)` = number of
    /// elements moving from `src` to `dst` — entirely in closed form: each
    /// (B-class, A-class) pair contributes `|AP ∩ AP ∩ [0, count)|`, one
    /// CRT plus one division per pair. `O(p² · k_a·k_b)` total, independent
    /// of the section length — the planning query a compiler asks when
    /// choosing between communication strategies, without materializing a
    /// single transfer.
    pub fn message_matrix(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
    ) -> Result<MessageMatrix> {
        use bcag_core::intersect::{intersect, Ap};
        use bcag_core::start::first_cycle_locs;

        let _sp = bcag_trace::span("comm.message_matrix");
        let rows = check_statement(p, k_a, sec_a, sec_b)?;
        let mut counts = vec![0i64; rows];
        let t_max = sec_b.count() - 1;
        if t_max < 0 {
            return Ok(MessageMatrix { p, counts });
        }
        let problem_a = Problem::new(p, k_a, sec_a.l, sec_a.s)?;
        let problem_b = Problem::new(p, k_b, sec_b.l, sec_b.s)?;
        let step_a = problem_a.period_elements();
        let step_b = problem_b.period_elements();
        // Per-processor first ranks per class, on each side.
        let ranks = |problem: &Problem, sec: &RegularSection| -> Result<Vec<Vec<i64>>> {
            (0..p)
                .map(|m| {
                    Ok(first_cycle_locs(problem, m)?
                        .into_iter()
                        .map(|loc| (loc - sec.l) / sec.s)
                        .collect())
                })
                .collect()
        };
        let b_side = ranks(&problem_b, sec_b)?;
        let a_side = ranks(&problem_a, sec_a)?;
        for src in 0..p as usize {
            for dst in 0..p as usize {
                let mut total = 0i64;
                for &tb in &b_side[src] {
                    for &ta in &a_side[dst] {
                        if let Some(common) = intersect(&Ap::new(tb, step_b), &Ap::new(ta, step_a))
                        {
                            total += common.count_to(t_max);
                        }
                    }
                }
                counts[src * p as usize + dst] = total;
            }
        }
        Ok(MessageMatrix { p, counts })
    }

    fn row(&self, src: i64, dst: i64) -> usize {
        (src * self.p + dst) as usize
    }

    /// Number of transfers from `src` to `dst`: `R·|period| + |tail|`.
    pub fn pair_len(&self, src: i64, dst: i64) -> usize {
        let c = self.counts[self.row(src, dst)];
        self.repeats as usize * c.period + c.tail
    }

    /// The transfers from `src` to `dst` in period form, unexpanded.
    pub(crate) fn pair_period(&self, src: i64, dst: i64) -> PairPeriod<'_> {
        let r = self.row(src, dst);
        let runs = self.runs.row(r);
        let c = self.counts[r];
        PairPeriod {
            runs,
            repeats: if runs.is_empty() { 0 } else { self.repeats },
            delta: self.delta,
            tail_runs: c.tail_runs,
            tail_cut: c.tail_cut,
        }
    }

    /// The constant-gap runs moving data from `src` to `dst`, in
    /// section-rank order: the stored period expanded over the section,
    /// merged across period boundaries where the gaps continue.
    pub fn transfer_runs(&self, src: i64, dst: i64) -> TransferRuns<'_> {
        let PairPeriod {
            runs: period,
            repeats,
            tail_runs,
            tail_cut,
            ..
        } = self.pair_period(src, dst);
        let left = if repeats > 0 {
            period
        } else {
            &period[..tail_runs]
        };
        // Both gaps reach into copy 1, which holds a transfer whenever the
        // boundary exists, so they are differences of real addresses.
        let join_into = |first: TransferRun| {
            join_gap(
                &period[period.len() - 1],
                &TransferRun {
                    src_local: first.src_local + self.delta.0,
                    dst_local: first.dst_local + self.delta.1,
                    ..first
                },
            )
        };
        let join_whole = (repeats >= 2).then(|| join_into(period[0])).flatten();
        let join_tail = (repeats >= 1 && tail_runs > 0)
            .then(|| {
                let len = if tail_runs == 1 {
                    tail_cut
                } else {
                    period[0].len
                };
                join_into(TransferRun { len, ..period[0] })
            })
            .flatten();
        // Every joined boundary makes two stored runs one.
        let joins = join_whole.map_or(0, |_| repeats - 1) + i64::from(join_tail.is_some());
        let remaining = repeats as usize * period.len() + tail_runs - joins as usize;
        TransferRuns {
            period,
            left,
            delta: self.delta,
            repeats,
            rep: 0,
            shift: (0, 0),
            tail_runs,
            tail_cut,
            join_whole,
            join_tail,
            remaining,
        }
    }

    /// Every transfer from `src` to `dst`, in section-rank order: the
    /// element-by-element expansion of [`CommSchedule::transfer_runs`].
    pub fn transfers(&self, src: i64, dst: i64) -> impl Iterator<Item = Transfer> + '_ {
        self.transfer_runs(src, dst).flat_map(|r| {
            (0..r.len).map(move |j| Transfer {
                src_local: r.src_local + j * r.sgap,
                dst_local: r.dst_local + j * r.dgap,
            })
        })
    }

    /// Total number of elements moved (equals the section size).
    pub fn total_elements(&self) -> usize {
        self.pair_lens().map(|(_, _, n)| n).sum()
    }

    /// Number of nonlocal element transfers (src != dst): the communication
    /// volume a real machine would put on the network.
    pub fn nonlocal_elements(&self) -> usize {
        self.pair_lens()
            .filter(|&(s, d, _)| s != d)
            .map(|(_, _, n)| n)
            .sum()
    }

    /// Number of non-empty (src, dst ≠ src) pairs — exactly the number of
    /// logical messages a fused epoch charges, and the schedule-side twin
    /// of the traced `messages_sent` counter.
    pub fn nonempty_nonlocal_pairs(&self) -> usize {
        self.pair_lens()
            .filter(|&(s, d, n)| s != d && n > 0)
            .count()
    }

    /// Heap bytes the schedule holds: one period of runs and the per-pair
    /// counts. Independent of how many periods the section spans.
    pub fn heap_bytes(&self) -> usize {
        self.runs.heap_bytes() + self.counts.capacity() * std::mem::size_of::<PairCount>()
    }

    /// `(src, dst, pair_len)` for every pair, row-major.
    fn pair_lens(&self) -> impl Iterator<Item = (i64, i64, usize)> + '_ {
        (0..self.p).flat_map(move |s| (0..self.p).map(move |d| (s, d, self.pair_len(s, d))))
    }
}

/// Validates the shared preconditions of every schedule query and returns
/// the number of (source, destination) pairs, `p²`.
fn check_statement(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    sec_b: &RegularSection,
) -> Result<usize> {
    if sec_a.count() != sec_b.count() {
        return Err(BcagError::Precondition(
            "assignment requires conforming sections (equal element counts)",
        ));
    }
    if sec_a.s <= 0 || sec_b.s <= 0 {
        return Err(BcagError::Precondition(
            "communication schedule requires ascending sections; normalize first",
        ));
    }
    if p < 1 {
        return Err(BcagError::InvalidProcessorCount { p });
    }
    if k_a < 1 {
        return Err(BcagError::InvalidBlockSize { k: k_a });
    }
    let rows = numth::mul(p, p)?;
    usize::try_from(rows).map_err(|_| BcagError::Overflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_accounting() {
        let sec_a = RegularSection::new(0, 99, 1).unwrap();
        let sec_b = RegularSection::new(0, 99, 1).unwrap();
        let sched = CommSchedule::build(4, 8, &sec_a, 8, &sec_b, Method::Lattice).unwrap();
        assert_eq!(sched.total_elements(), 100);
        // Identical layouts and sections: everything is local.
        assert_eq!(sched.nonlocal_elements(), 0);
        assert_eq!(sched.nonempty_nonlocal_pairs(), 0);

        // Shifted section: most transfers cross processors.
        let sec_b2 = RegularSection::new(8, 107, 1).unwrap();
        let sched2 = CommSchedule::build(4, 8, &sec_a, 8, &sec_b2, Method::Lattice).unwrap();
        assert_eq!(sched2.total_elements(), 100);
        assert!(sched2.nonlocal_elements() > 0);
        assert!(sched2.nonempty_nonlocal_pairs() > 0);
    }

    #[test]
    fn nonconforming_sections_rejected() {
        let sec_a = RegularSection::new(0, 99, 1).unwrap();
        let sec_b = RegularSection::new(0, 99, 2).unwrap();
        assert!(CommSchedule::build(4, 8, &sec_a, 8, &sec_b, Method::Lattice).is_err());
    }

    #[test]
    fn lattice_schedule_equals_enumerated_schedule() {
        for (p, k_a, k_b, la, lb, s_a, s_b, count) in [
            (4i64, 8i64, 3i64, 2i64, 1i64, 4i64, 4i64, 58i64),
            (3, 5, 5, 0, 0, 1, 1, 100),
            (2, 4, 8, 7, 3, 9, 5, 40),
            (5, 2, 3, 0, 11, 13, 2, 77),
            (1, 4, 4, 0, 0, 3, 3, 10),
        ] {
            let sec_a = RegularSection::new(la, la + (count - 1) * s_a, s_a).unwrap();
            let sec_b = RegularSection::new(lb, lb + (count - 1) * s_b, s_b).unwrap();
            let enumerated =
                CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
            let lattice = CommSchedule::build_lattice(p, k_a, &sec_a, k_b, &sec_b).unwrap();
            for src in 0..p {
                for dst in 0..p {
                    assert!(
                        lattice
                            .transfers(src, dst)
                            .eq(enumerated.transfers(src, dst)),
                        "p={p} kA={k_a} kB={k_b} src={src} dst={dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn message_matrix_matches_materialized_schedule() {
        for (p, k_a, k_b, la, lb, s_a, s_b, count) in [
            (4i64, 8i64, 3i64, 2i64, 1i64, 4i64, 4i64, 58i64),
            (3, 5, 5, 0, 0, 1, 1, 100),
            (2, 4, 8, 7, 3, 9, 5, 40),
            (5, 2, 3, 0, 11, 13, 2, 77),
        ] {
            let sec_a = RegularSection::new(la, la + (count - 1) * s_a, s_a).unwrap();
            let sec_b = RegularSection::new(lb, lb + (count - 1) * s_b, s_b).unwrap();
            let sched = CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
            let matrix = CommSchedule::message_matrix(p, k_a, &sec_a, k_b, &sec_b).unwrap();
            for src in 0..p {
                for dst in 0..p {
                    assert_eq!(
                        matrix.get(src, dst),
                        sched.pair_len(src, dst) as i64,
                        "p={p} kA={k_a} kB={k_b} src={src} dst={dst}"
                    );
                    assert_eq!(sched.transfers(src, dst).count(), sched.pair_len(src, dst));
                }
            }
            // Conservation: the matrix sums to the section size.
            assert_eq!(matrix.total(), count);
        }
    }

    #[test]
    fn message_matrix_scales_without_materialization() {
        // A section far too large to enumerate cheaply: counts still come
        // out exactly (checked by conservation and symmetry properties).
        let n = 50_000_000i64;
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let shifted = RegularSection::new(1, n, 1).unwrap();
        let m = CommSchedule::message_matrix(8, 16, &sec, 16, &shifted).unwrap();
        assert_eq!(m.total(), n);
        // Shift by 1 within blocks of 16: 15/16 of elements stay local.
        let local: i64 = (0..8).map(|i| m.get(i, i)).sum();
        assert!(
            local * 16 > m.total() * 14,
            "local fraction ~15/16, got {local}/{}",
            m.total()
        );
    }

    /// A dense `cyclic(8)` copy on 4 nodes, `n` elements.
    fn dense_copy(n: i64) -> CommSchedule {
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        CommSchedule::build(4, 8, &sec, 8, &sec, Method::Lattice).unwrap()
    }

    #[test]
    fn cached_schedules_hold_one_period() {
        let (small, large) = (dense_copy(1 << 16), dense_copy(1 << 22));
        assert_eq!(small.heap_bytes(), large.heap_bytes());
        assert_eq!(large.total_elements(), 1 << 22);
        assert_eq!(large.pair_len(1, 1), 1 << 20);
    }

    #[test]
    fn dense_copies_stay_one_run() {
        let sched = dense_copy((1 << 16) + 5);
        for m in 0..4 {
            let runs: Vec<TransferRun> = sched.transfer_runs(m, m).collect();
            assert_eq!(runs.len(), 1, "node {m}: {runs:?}");
            assert_eq!((runs[0].src_local, runs[0].dst_local), (0, 0));
            assert_eq!((runs[0].sgap, runs[0].dgap), (1, 1));
            assert_eq!(runs[0].len as usize, sched.pair_len(m, m));
        }
    }

    #[test]
    fn period_runs_repeat_with_their_deltas() {
        // p = 2, k = 1 on both sides, strides 1 and 3: L = 2, so node 0
        // sends ranks 0, 2, 4, … (B addresses 0, 1, 2, …; A elements
        // 0, 6, 12, … at A addresses 0, 3, 6, …) to node 0.
        let sec_a = RegularSection::new(0, 3 * 8, 3).unwrap();
        let sec_b = RegularSection::new(0, 8, 1).unwrap();
        let sched = CommSchedule::build(2, 1, &sec_a, 1, &sec_b, Method::Lattice).unwrap();
        let runs: Vec<TransferRun> = sched.transfer_runs(0, 0).collect();
        assert_eq!(
            runs,
            vec![TransferRun {
                src_local: 0,
                dst_local: 0,
                len: 5,
                sgap: 1,
                dgap: 3,
            }]
        );
        assert_eq!(sched.pair_len(0, 1), 0);
        assert_eq!(sched.transfer_runs(0, 1).count(), 0);
        assert_eq!(sched.pair_len(1, 1), 4);
    }
}
