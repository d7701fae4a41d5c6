//! Fused copies vs the sequential oracle and the schedule's closed forms.
//!
//! A copy `A(sec_a) = B(sec_b)` runs the fused program's copy epoch: one
//! physical message per non-empty (src, dst ≠ src) pair, self-transfers
//! in place. These tests pin *what* moves and what the trace counters
//! report: element-for-element agreement with a sequential assignment,
//! and counter totals equal to the schedule's closed-form counts
//! (`total_elements`, `nonlocal_elements`, `nonempty_nonlocal_pairs`,
//! canonical `wire_size`) on every transport.

use std::sync::{Mutex, MutexGuard};

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_harness::prop;
use bcag_spmd::comm::wire::wire_size;
use bcag_spmd::fuse::assign_copy_on;
use bcag_spmd::{assign_array, cache, CommSchedule, DistArray, ExecMode, TransportKind};

/// Tracing is a process-global switch and the resident pool is shared,
/// so an untraced copy in a concurrent test would leak counts into a
/// traced one: every test in this binary runs alone.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sequential oracle for `A(sec_a) = B(sec_b)` over global index space.
fn seq_assign(a: &mut [i64], sec_a: &RegularSection, b: &[i64], sec_b: &RegularSection) {
    for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
        a[ia as usize] = b[ib as usize];
    }
}

type Case = (i64, i64, i64, i64, i64, i64, i64, i64);

fn random_case(rng: &mut bcag_harness::rng::Rng) -> Case {
    let p = rng.random_range(1..=6);
    let k_a = rng.random_range(1..=10);
    let k_b = rng.random_range(1..=10);
    let c = rng.random_range(1..=40); // shared element count
    let l_a = rng.random_range(0..=25);
    let s_a = rng.random_range(1..=9);
    let l_b = rng.random_range(0..=25);
    let s_b = rng.random_range(1..=9);
    (p, k_a, k_b, c, l_a, s_a, l_b, s_b)
}

fn sections(&(_, _, _, c, l_a, s_a, l_b, s_b): &Case) -> (RegularSection, RegularSection) {
    (
        RegularSection::new(l_a, l_a + s_a * (c - 1), s_a).unwrap(),
        RegularSection::new(l_b, l_b + s_b * (c - 1), s_b).unwrap(),
    )
}

#[test]
fn copy_matches_sequential_oracle_randomized() {
    let _serial = serial();
    let cfg = prop::Config {
        cases: 60,
        ..Default::default()
    };
    prop::check_with(
        &cfg,
        "fused copy == sequential oracle",
        &prop::from_fn(random_case),
        |case| {
            let &(p, k_a, k_b, ..) = case;
            let (sec_a, sec_b) = sections(case);
            let n_a = sec_a.normalized().hi + 1;
            let n_b = sec_b.normalized().hi + 1;
            let bg: Vec<i64> = (0..n_b).map(|i| 10_000 + 3 * i).collect();
            let b = DistArray::from_global(p, k_b, &bg).unwrap();
            let mut expect = vec![-1i64; n_a as usize];
            seq_assign(&mut expect, &sec_a, &bg, &sec_b);
            let mut a = DistArray::new(p, k_a, n_a, -1i64).unwrap();
            assign_array(&mut a, &sec_a, &b, &sec_b).unwrap();
            assert_eq!(a.to_global(), expect, "{case:?}");
        },
    );
}

/// The deterministic counters of one traced copy: `(elements_moved,
/// elements_nonlocal, messages_sent, bytes_packed, transport_bytes_tx,
/// transport_bytes_rx)`.
fn traced_totals(case: &Case, kind: TransportKind) -> [u64; 6] {
    let &(p, k_a, k_b, ..) = case;
    let (sec_a, sec_b) = sections(case);
    let bg: Vec<i64> = (0..=sec_b.normalized().hi).collect();
    let b = DistArray::from_global(p, k_b, &bg).unwrap();
    let mut a = DistArray::new(p, k_a, sec_a.normalized().hi + 1, 0i64).unwrap();
    let (result, trace) = bcag_trace::capture(|| assign_copy_on(&mut a, &sec_a, &b, &sec_b, kind));
    result.unwrap();
    [
        "elements_moved",
        "elements_nonlocal",
        "messages_sent",
        "bytes_packed",
        "transport_bytes_tx",
        "transport_bytes_rx",
    ]
    .map(|name| trace.counter_total(name))
}

/// The same six totals in closed form: the element counts from the CRT
/// oracle, the wire bytes from the runs of the period schedule the fused
/// compile reads.
fn closed_form(case: &Case) -> [u64; 6] {
    let &(p, k_a, k_b, ..) = case;
    let (sec_a, sec_b) = sections(case);
    let oracle = CommSchedule::build_lattice(p, k_a, &sec_a, k_b, &sec_b).unwrap();
    let sched = CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
    let total = oracle.total_elements() as u64;
    let mut wire = 0u64;
    for src in 0..p {
        for dst in (0..p).filter(|&d| d != src) {
            let n = sched.pair_len(src, dst);
            assert_eq!(n, oracle.pair_len(src, dst));
            if n > 0 {
                wire += wire_size::<i64>(sched.transfer_runs(src, dst).count(), n) as u64;
            }
        }
    }
    [
        total,
        oracle.nonlocal_elements() as u64,
        oracle.nonempty_nonlocal_pairs() as u64,
        total * std::mem::size_of::<i64>() as u64,
        wire,
        wire,
    ]
}

#[test]
fn counter_totals_equal_closed_forms_randomized() {
    let _serial = serial();
    let cfg = prop::Config {
        cases: 30,
        ..Default::default()
    };
    prop::check_with(
        &cfg,
        "traced counter totals == schedule closed forms",
        &prop::from_fn(random_case),
        |case| {
            let want = closed_form(case);
            for kind in TransportKind::ALL {
                assert_eq!(traced_totals(case, kind), want, "{} {case:?}", kind.name());
            }
        },
    );
}

#[test]
fn messages_sent_equals_nonempty_nonlocal_pairs() {
    let _serial = serial();
    // Pinned identity: one logical message per non-empty
    // (src, dst != src) pair, and the counter records exactly that.
    for case in [
        (4i64, 8i64, 3i64, 58i64, 2i64, 4i64, 1i64, 4i64),
        (3, 5, 5, 100, 0, 1, 0, 1),
        (2, 4, 8, 40, 7, 9, 3, 5),
        (5, 2, 3, 77, 0, 13, 11, 2),
        (4, 8, 8, 256, 0, 1, 0, 1), // identity copy: zero messages
    ] {
        let messages = traced_totals(&case, TransportKind::Shm)[2];
        assert_eq!(messages, closed_form(&case)[2], "{case:?}");
    }
}

#[test]
fn schedule_cache_counters_are_traced() {
    let _serial = serial();
    // Key shapes unique to this test so the first lookup is a miss and the
    // second a hit, regardless of what other tests in this process did.
    let sec_a = RegularSection::new(5, 1930, 35).unwrap();
    let sec_b = RegularSection::new(9, 1934, 35).unwrap();
    let lookup = || {
        cache::schedule(
            4,
            14,
            &sec_a,
            15,
            &sec_b,
            Method::Lattice,
            ExecMode::Batched,
            TransportKind::Shm,
        )
        .unwrap()
    };
    let ((), trace) = bcag_trace::capture(|| {
        let first = lookup();
        let second = lookup();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
    });
    assert_eq!(trace.counter_total("schedule_cache_misses"), 1);
    assert_eq!(trace.counter_total("schedule_cache_hits"), 1);
}
