//! Schedule construction: which elements move between which nodes.
//!
//! The schedule is stored flat: one CSR buffer of [`Transfer`]s with a
//! `p² + 1` offset table ([`crate::csr::Csr`]), so building allocates
//! O(1) vectors instead of the O(p²) of a `Vec<Vec<Vec<_>>>` encoding and
//! a per-pair transfer list is a free slice. Every construction path also
//! compiles the run-coalesced form of each row ([`TransferRun`]) up
//! front, so cached schedules carry their runs for free.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::{build, Method};
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

/// The full communication schedule for one array assignment: for each
/// (source, destination) pair, the ordered element transfers, stored as
/// one flat CSR buffer with rows indexed `src * p + dst`, plus the
/// run-coalesced form of every row (computed once at build time, cached
/// with the schedule by [`crate::cache`]).
#[derive(Debug, Clone)]
pub struct CommSchedule {
    pub(crate) p: i64,
    /// Row `src * p + dst` lists transfers from node `src` to node `dst`
    /// in increasing section-rank order.
    pairs: Csr<Transfer>,
    /// Run-coalesced rows: same indexing, each row the constant-gap run
    /// decomposition of the corresponding `pairs` row.
    runs: Csr<TransferRun>,
}

/// Greedy maximal constant-gap grouping of one transfer row (the
/// communication-set analogue of `bcag_core::runs`). A run absorbs the
/// next transfer while both address gaps stay constant; a non-unit run
/// never steals the head of a following `(1, 1)` run, so the memcpy runs
/// stay maximal.
fn compile_transfer_runs(trs: &[Transfer], out: &mut crate::csr::CsrBuilder<TransferRun>) {
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

impl CommSchedule {
    /// Wraps a completed transfer CSR into a schedule, compiling the
    /// run-coalesced form of every row up front. All construction funnels
    /// through here, so any cached schedule carries its runs for free.
    fn from_pairs(p: i64, pairs: Csr<Transfer>) -> CommSchedule {
        let rows = pairs.rows();
        let mut runs = Csr::builder();
        for r in 0..rows {
            compile_transfer_runs(pairs.row(r), &mut runs);
            runs.finish_row();
        }
        CommSchedule {
            p,
            pairs,
            runs: runs.finish(rows),
        }
    }

    /// Builds the schedule for `A(sec_a) = B(sec_b)` where `A` is laid out
    /// `(p, k_a)` and `B` is `(p, k_b)`. Both sections must have the same
    /// element count and ascending strides.
    pub fn build(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
        method: Method,
    ) -> Result<CommSchedule> {
        let _sp = bcag_trace::span("comm.build");
        check_sections(sec_a, sec_b)?;
        if sec_b.count() == 0 {
            return Ok(CommSchedule::from_pairs(p, Csr::empty((p * p) as usize)));
        }
        let pn = p as usize;
        let lay_a = Layout::from_raw(p, k_a);
        let problem_b = Problem::new(p, k_b, sec_b.l, sec_b.s)?;
        let mut pairs = Csr::builder();
        // Scratch reused across sources: transfers tagged with their
        // destination, then scattered into destination order by a stable
        // counting sort — no per-pair vectors anywhere.
        let mut tagged: Vec<(usize, Transfer)> = Vec::new();
        let mut slots: Vec<Transfer> = Vec::new();
        let mut cursor: Vec<usize> = vec![0; pn];
        for src in 0..p {
            // Enumerate the RHS elements owned by `src` with the core
            // algorithm, bounded by the section's upper bound.
            let pat = build(&problem_b, src, method)?;
            tagged.clear();
            cursor.fill(0);
            for acc in pat.iter_to(sec_b.u) {
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
            for &end in cursor.iter() {
                pairs.extend_row(&slots[begin..end]);
                pairs.finish_row();
                begin = end;
            }
        }
        Ok(CommSchedule::from_pairs(p, pairs.finish(pn * pn)))
    }

    /// Builds the same schedule in closed form, without enumerating the
    /// section: the ranks `t` whose B-element lives on `src` form one
    /// arithmetic progression per owned offset class (step `pk_b / d_b`),
    /// and likewise for the A-element on `dst`; each (class, class) pair
    /// intersects by the Chinese Remainder construction
    /// ([`bcag_core::intersect`]). Cost is `O(p² · k_a·k_b)` pair setup plus
    /// the output size, independent of how many *cycles* the section spans —
    /// the regime where rank-by-rank enumeration loses.
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
        check_sections(sec_a, sec_b)?;
        let t_max = sec_b.count() - 1;
        if t_max < 0 {
            return Ok(CommSchedule::from_pairs(p, Csr::empty((p * p) as usize)));
        }
        let lay_a = Layout::from_raw(p, k_a);
        let lay_b = Layout::from_raw(p, k_b);
        let problem_a = Problem::new(p, k_a, sec_a.l, sec_a.s)?;
        let problem_b = Problem::new(p, k_b, sec_b.l, sec_b.s)?;
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

        let mut pairs = Csr::builder();
        let mut ts: Vec<i64> = Vec::new(); // scratch reused across pairs
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
                for &t in &ts {
                    let b_elem = sec_b.l + t * sec_b.s;
                    let a_elem = sec_a.l + t * sec_a.s;
                    debug_assert_eq!(lay_b.owner(b_elem), src);
                    debug_assert_eq!(lay_a.owner(a_elem), dst as i64);
                    pairs.push(Transfer {
                        src_local: lay_b.local_addr(b_elem),
                        dst_local: lay_a.local_addr(a_elem),
                    });
                }
                pairs.finish_row();
            }
        }
        Ok(CommSchedule::from_pairs(p, pairs.finish((p * p) as usize)))
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
        check_sections(sec_a, sec_b)?;
        let mut counts = vec![0i64; (p * p) as usize];
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

    /// Transfers from `src` to `dst` — a free slice into the CSR buffer.
    pub fn transfers(&self, src: i64, dst: i64) -> &[Transfer] {
        self.pair(src as usize, dst as usize)
    }

    /// Run-coalesced form of the same row [`CommSchedule::transfers`]
    /// returns: the greedy maximal constant-gap run decomposition computed
    /// once at build time.
    pub fn transfer_runs(&self, src: i64, dst: i64) -> &[TransferRun] {
        self.pair_runs(src as usize, dst as usize)
    }

    pub(crate) fn pair(&self, src: usize, dst: usize) -> &[Transfer] {
        self.pairs.row(src * self.p as usize + dst)
    }

    pub(crate) fn pair_runs(&self, src: usize, dst: usize) -> &[TransferRun] {
        self.runs.row(src * self.p as usize + dst)
    }

    /// Total number of elements moved (equals the section size).
    pub fn total_elements(&self) -> usize {
        self.pairs.len()
    }

    /// Number of nonlocal element transfers (src != dst): the communication
    /// volume a real machine would put on the network.
    pub fn nonlocal_elements(&self) -> usize {
        let p = self.p as usize;
        (0..p)
            .flat_map(|s| (0..p).filter_map(move |d| (s != d).then_some((s, d))))
            .map(|(s, d)| self.pair(s, d).len())
            .sum()
    }

    /// Number of non-empty (src, dst ≠ src) pairs — exactly the number of
    /// logical messages a fused epoch charges, and the schedule-side twin
    /// of the traced `messages_sent` counter.
    pub fn nonempty_nonlocal_pairs(&self) -> usize {
        let p = self.p as usize;
        (0..p)
            .flat_map(|s| (0..p).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && !self.pair(s, d).is_empty())
            .count()
    }
}

pub(crate) fn check_sections(sec_a: &RegularSection, sec_b: &RegularSection) -> Result<()> {
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
    Ok(())
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
                    assert_eq!(
                        lattice.transfers(src, dst),
                        enumerated.transfers(src, dst),
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
                        sched.transfers(src, dst).len() as i64,
                        "p={p} kA={k_a} kB={k_b} src={src} dst={dst}"
                    );
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
}
