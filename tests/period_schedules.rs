//! The period form of `CommSchedule` against the expanded oracles.
//!
//! `CommSchedule::build` walks one period of `L = lcm(P_a, P_b)` section
//! ranks per source and stores, per (source, destination) pair, that
//! period's runs, a repeat count, the per-period address deltas and a
//! tail. These tests expand it back and compare it, pair by pair, with
//! the CRT construction (`build_lattice`, which stores whole rows) and
//! with a per-rank `Layout::owner`/`local_addr` walk — over random
//! layouts, and at parameters near the `i64` bounds, where the answer
//! must be exact or a typed error, never a wrapped value or a panic. At
//! those bounds `fuse::compile`, which builds a statement's program from
//! the same periods, must agree with the schedule, and the statements
//! whose arrays fit in memory must run to the oracle's image.

use bcag::core::method::Method;
use bcag::core::numth::{gcd, lcm};
use bcag::core::section::RegularSection;
use bcag::spmd::fuse::{self, assign_fused_on};
use bcag::spmd::{CommSchedule, DistArray, ExecMode, Transfer, TransportKind};
use bcag::{BcagError, Layout};
use bcag_harness::prop::{check_with, from_fn, Config};
use bcag_harness::Rng;

/// Section ranks per period of one side: `p·k / gcd(s, p·k)`.
fn rank_period(p: i64, k: i64, s: i64) -> i64 {
    p * k / gcd(s, p * k)
}

/// Per-rank oracle: row `src * p + dst` lists the pair's transfers in
/// section-rank order.
fn per_rank(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    k_b: i64,
    sec_b: &RegularSection,
) -> Vec<Vec<Transfer>> {
    let (lay_a, lay_b) = (Layout::from_raw(p, k_a), Layout::from_raw(p, k_b));
    let mut rows = vec![Vec::new(); (p * p) as usize];
    for (a, b) in sec_a.iter().zip(sec_b.iter()) {
        rows[(lay_b.owner(b) * p + lay_a.owner(a)) as usize].push(Transfer {
            src_local: lay_b.local_addr(b),
            dst_local: lay_a.local_addr(a),
        });
    }
    rows
}

/// Checks every pair of `sched` against the oracle rows: the expanded
/// transfers, `pair_len`, the totals, and the runs themselves (every
/// `len ≥ 1`, positive gaps, lengths summing to the pair's count).
fn check_against(sched: &CommSchedule, p: i64, rows: &[Vec<Transfer>], what: &str) {
    let mut nonlocal = 0usize;
    for src in 0..p {
        for dst in 0..p {
            let row = &rows[(src * p + dst) as usize];
            let got: Vec<Transfer> = sched.transfers(src, dst).collect();
            assert_eq!(&got, row, "{what}: pair ({src}, {dst})");
            assert_eq!(
                sched.pair_len(src, dst),
                row.len(),
                "{what}: ({src}, {dst})"
            );
            let mut covered = 0i64;
            let runs = sched.transfer_runs(src, dst);
            assert_eq!(runs.len(), runs.clone().count(), "{what}: ({src}, {dst})");
            for run in runs {
                assert!(run.len >= 1, "{what}: ({src}, {dst}) {run:?}");
                assert!(run.sgap > 0 && run.dgap > 0, "{what}: {run:?}");
                covered += run.len;
            }
            assert_eq!(covered as usize, row.len(), "{what}: ({src}, {dst})");
            if src != dst {
                nonlocal += row.len();
            }
        }
    }
    let total: usize = rows.iter().map(Vec::len).sum();
    assert_eq!(sched.total_elements(), total, "{what}");
    assert_eq!(sched.nonlocal_elements(), nonlocal, "{what}");
}

/// `(p, k_a, k_b, l_a, s_a, l_b, s_b, n)`.
type Case = (i64, i64, i64, i64, i64, i64, i64, i64);

/// Random layouts — block sizes up to 64, often up to 8 so that periods
/// stay short — and strides up to `3pk + 1` (so `s mod pk ≥ k` occurs);
/// `n` lands at `L − 1`, `L` or `L + 1`, at 2–5 periods plus a tail, or
/// below 4 (empty, single-element and `k ≥ n` sections), capped so the
/// oracles stay cheap — large `L` gives `L > n`.
fn random_case(rng: &mut Rng) -> Case {
    let p = if rng.random_bool(0.2) {
        1
    } else {
        rng.random_range(1..=8)
    };
    let mut block = || {
        let max = if rng.random_bool(0.4) { 8 } else { 64 };
        rng.random_range(1..=max)
    };
    let (k_a, k_b) = (block(), block());
    let s_a = rng.random_range(1..=3 * p * k_a + 1);
    let s_b = rng.random_range(1..=3 * p * k_b + 1);
    let l_a = rng.random_range(0..=2 * p * k_a);
    let l_b = rng.random_range(0..=2 * p * k_b);
    let period = lcm(rank_period(p, k_a, s_a), rank_period(p, k_b, s_b)).unwrap();
    let n = match rng.random_range(0..5) {
        0 => period - 1,
        1 => period,
        2 => period + 1,
        3 => rng.random_range(2..=5) * period + rng.random_range(0..period),
        _ => rng.random_range(0..4),
    };
    (p, k_a, k_b, l_a, s_a, l_b, s_b, n.min(4_000))
}

fn sections(case: &Case) -> (RegularSection, RegularSection) {
    let &(_, _, _, l_a, s_a, l_b, s_b, n) = case;
    let sec = |l: i64, s: i64| {
        if n == 0 {
            RegularSection::new(l + 1, l, s).unwrap()
        } else {
            RegularSection::new(l, l + (n - 1) * s, s).unwrap()
        }
    };
    (sec(l_a, s_a), sec(l_b, s_b))
}

#[test]
fn period_schedules_equal_the_expanded_oracles() {
    let cfg = Config {
        cases: 256,
        ..Default::default()
    };
    check_with(
        &cfg,
        "period schedule == CRT rows == per-rank walk",
        &from_fn(random_case),
        |case| {
            let &(p, k_a, k_b, ..) = case;
            let (sec_a, sec_b) = sections(case);
            let rows = per_rank(p, k_a, &sec_a, k_b, &sec_b);
            let sched = CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
            check_against(&sched, p, &rows, &format!("build {case:?}"));
            let crt = CommSchedule::build_lattice(p, k_a, &sec_a, k_b, &sec_b).unwrap();
            check_against(&crt, p, &rows, &format!("build_lattice {case:?}"));
            let matrix = CommSchedule::message_matrix(p, k_a, &sec_a, k_b, &sec_b).unwrap();
            for src in 0..p {
                for dst in 0..p {
                    assert_eq!(
                        sched.pair_len(src, dst) as i64,
                        matrix.get(src, dst),
                        "{case:?} ({src}, {dst})"
                    );
                }
            }
        },
    );
}

/// One extreme case: `A(l_a : · : s_a) = B(l_b : · : s_b)` over `n`
/// elements. The section bounds are computed with checked arithmetic, and
/// a case whose sections cannot exist in `i64` is skipped.
struct Extreme {
    p: i64,
    k_a: i64,
    k_b: i64,
    a: (i64, i64),
    b: (i64, i64),
    n: i64,
}

impl Extreme {
    fn section(&self, (l, s): (i64, i64)) -> Option<RegularSection> {
        if self.n == 0 {
            return RegularSection::new(l.checked_add(1)?, l, s).ok();
        }
        let u = (self.n - 1).checked_mul(s)?.checked_add(l)?;
        RegularSection::new(l, u, s).ok()
    }

    /// Runs the statement `A(sec_a) = 2·B(sec_b) + 1` through the fused
    /// path and checks the image against the global-index oracle, when
    /// both arrays (each section's top element, plus one) fit in memory
    /// and their layouts are valid. Returns whether it ran.
    fn run_if_small(&self, sec_a: &RegularSection, sec_b: &RegularSection) -> bool {
        const MAX_LEN: i64 = 1 << 16;
        let top = |sec: &RegularSection| sec.normalized().hi.max(0).saturating_add(1);
        let (len_a, len_b) = (top(sec_a), top(sec_b));
        if self.p > 8 || len_a > MAX_LEN || len_b > MAX_LEN {
            return false;
        }
        let base: Vec<f64> = (0..len_a).map(|i| i as f64 * 0.5 - 3.0).collect();
        let bg: Vec<f64> = (0..len_b).map(|i| (i % 97) as f64 + 0.25).collect();
        let mut want = base.clone();
        for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
            want[ia as usize] = 2.0 * bg[ib as usize] + 1.0;
        }
        // An array layout the core rejects is no statement to run.
        let (mut a, b) = match (
            DistArray::from_global(self.p, self.k_a, &base),
            DistArray::from_global(self.p, self.k_b, &bg),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                assert!(typed(&e), "unexpected error {e}");
                return false;
            }
        };
        let body = |v: &[f64]| 2.0 * v[0] + 1.0;
        assign_fused_on(&mut a, sec_a, &[(&b, *sec_b)], body, TransportKind::Shm).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&a.to_global()), bits(&want), "{sec_a:?} = {sec_b:?}");
        true
    }
}

/// The error kinds an extreme machine or section shape may produce.
fn typed(e: &BcagError) -> bool {
    matches!(
        e,
        BcagError::Overflow
            | BcagError::InvalidProcessorCount { .. }
            | BcagError::InvalidBlockSize { .. }
    )
}

#[test]
fn extreme_parameters_are_exact_or_typed_errors() {
    const MAX: i64 = i64::MAX;
    let big = bcag::core::params::MAX_INDEX;
    let mut cases = vec![
        // `p` itself near the bound: `p²` pairs overflow.
        Extreme {
            p: MAX,
            k_a: 1,
            k_b: 1,
            a: (0, 1),
            b: (0, 1),
            n: 1,
        },
        Extreme {
            p: 1 << 32,
            k_a: 1,
            k_b: 1,
            a: (0, 1),
            b: (0, 1),
            n: 0,
        },
        // Block sizes near the bound: `p·k` overflows on one side.
        Extreme {
            p: 2,
            k_a: MAX / 2 + 1,
            k_b: 1,
            a: (0, 1),
            b: (0, 1),
            n: 3,
        },
        Extreme {
            p: 2,
            k_a: 1,
            k_b: MAX / 2,
            a: (0, 1),
            b: (0, 1),
            n: 3,
        },
        Extreme {
            p: 1,
            k_a: MAX,
            k_b: 1,
            a: (5, 1),
            b: (0, 1),
            n: 40,
        },
        // The last B element just below `i64::MAX`: the AM walk must stop
        // without stepping past it.
        Extreme {
            p: 1,
            k_a: 8,
            k_b: 1,
            a: (0, 1),
            b: (big, big),
            n: 8,
        },
        // Huge strides on either side.
        Extreme {
            p: 3,
            k_a: 5,
            k_b: 2,
            a: (7, MAX / 9),
            b: (1, big / 6),
            n: 9,
        },
        Extreme {
            p: 1,
            k_a: 3,
            k_b: 1,
            a: (0, MAX / 6),
            b: (0, 1),
            n: 6,
        },
        Extreme {
            p: 4,
            k_a: 1,
            k_b: 1,
            a: (0, 1),
            b: (0, MAX),
            n: 1,
        },
        Extreme {
            p: 4,
            k_a: 1,
            k_b: 1,
            a: (0, 1),
            b: (0, MAX),
            n: 2,
        },
        // A single element at a stride near the bound.
        Extreme {
            p: 3,
            k_a: 5,
            k_b: 2,
            a: (7, MAX),
            b: (1, big),
            n: 1,
        },
        // Blocks near the layout bound `p·k ≤ MAX_INDEX` over short
        // arrays: one side lies in a single block, so the combined period
        // is far past the section, and the statements run.
        Extreme {
            p: 2,
            k_a: big / 2,
            k_b: 3,
            a: (0, 1),
            b: (5, 1),
            n: 40,
        },
        Extreme {
            p: 3,
            k_a: big / 3,
            k_b: 2,
            a: (2, 1),
            b: (1, 2),
            n: 30,
        },
        // Empty and single-element sections.
        Extreme {
            p: 5,
            k_a: 3,
            k_b: 7,
            a: (MAX - 1, MAX),
            b: (0, big),
            n: 0,
        },
        Extreme {
            p: 5,
            k_a: 3,
            k_b: 7,
            a: (MAX, MAX),
            b: (big, 1),
            n: 1,
        },
        Extreme {
            p: 3,
            k_a: 2,
            k_b: 2,
            a: (0, MAX),
            b: (big, big),
            n: 1,
        },
        // Invalid machine shapes.
        Extreme {
            p: 0,
            k_a: 1,
            k_b: 1,
            a: (0, 1),
            b: (0, 1),
            n: 4,
        },
        Extreme {
            p: 2,
            k_a: 0,
            k_b: 1,
            a: (0, 1),
            b: (0, 1),
            n: 4,
        },
    ];
    // `L ∈ {n − 1, n, n + 1}` at strides as large as the sections allow:
    // `p·k_a = 6`, `p·k_b = 2` and strides coprime to 6 give `L = 6`. With
    // `s_a` just above `i64::MAX / 6`, `L·s_a/p` exceeds `i64` on one node
    // although every address of the 6-element section fits.
    let coprime = |from: i64, step: i64| {
        (0..)
            .map(|i| from + i * step)
            .find(|&s| gcd(s, 6) == 1)
            .unwrap()
    };
    let s_b = coprime(big / 2, -1);
    for p in [1, 2] {
        for s_a in [coprime(MAX / 6 + 1, 1), coprime((MAX - 11) / 6, -1)] {
            for n in [5, 6, 7] {
                cases.push(Extreme {
                    p,
                    k_a: 6 / p,
                    k_b: 2 / p,
                    a: (11, s_a),
                    b: (3, s_b),
                    n,
                });
            }
        }
    }
    let (mut exact, mut ran) = (0, 0);
    for (i, case) in cases.iter().enumerate() {
        let (Some(sec_a), Some(sec_b)) = (case.section(case.a), case.section(case.b)) else {
            continue;
        };
        let (p, k_a, k_b) = (case.p, case.k_a, case.k_b);
        // The fused program compiles from the same periods: it builds
        // exactly when the schedule does, and fails with its typed error.
        let ops = [(k_b, sec_b)];
        let program = fuse::compile::<f64>(
            p,
            k_a,
            &sec_a,
            &ops,
            ExecMode::Batched,
            TransportKind::Shm,
            0,
        );
        match CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice) {
            Ok(sched) => {
                let rows = per_rank(p, k_a, &sec_a, k_b, &sec_b);
                check_against(&sched, p, &rows, &format!("extreme case {i}"));
                let program = program
                    .unwrap_or_else(|e| panic!("extreme case {i}: schedule builds, program: {e}"));
                let census = program.census();
                assert_eq!(
                    census.sends,
                    sched.nonempty_nonlocal_pairs(),
                    "extreme case {i}"
                );
                assert!(
                    census.apply_segments <= case.n as usize,
                    "extreme case {i}: {census:?}"
                );
                if case.run_if_small(&sec_a, &sec_b) {
                    ran += 1;
                }
                exact += 1;
            }
            Err(e) => {
                assert!(typed(&e), "extreme case {i}: unexpected error {e}");
                match program {
                    Ok(_) => panic!("extreme case {i}: the program compiled, the schedule: {e}"),
                    Err(e) => assert!(typed(&e), "extreme case {i}: unexpected error {e}"),
                }
            }
        }
    }
    assert!(exact >= 12, "only {exact} extreme cases built");
    assert!(ran >= 2, "only {ran} extreme statements ran");
}
