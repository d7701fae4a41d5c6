//! The resident worker pool must be invisible.
//!
//! The pool changes *where* node programs run (resident worker threads
//! fed through a dispatch/epoch barrier) but must not change anything
//! observable: array contents must equal the sequential oracle and every
//! deterministic trace counter total must equal the schedule's closed
//! form. These tests pin that for fused copies over randomized layouts
//! and a rotating set of payload types, on both payload forms, and check
//! that a panicking node program poisons the epoch cleanly — re-raised
//! on the dispatcher, pool still usable — instead of hanging the fabric.
//!
//! Timing counters (`*_ns`) and `pool_buffer_reuses` are deliberately
//! excluded: wall-clock differs per run, and arena recycling depends on
//! what ran on the pool before.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

use bcag_core::section::RegularSection;
use bcag_harness::prop;
use bcag_spmd::fuse::assign_copy_on;
use bcag_spmd::{assign_array, CommSchedule, DistArray, Machine, PackValue, TransportKind};

/// Tracing is process-global and the pool is shared: tests that trace
/// or poison the pool run alone.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(p, k_a, k_b, count, l_a, s_a, l_b, s_b, type_sel)`.
type Case = (i64, i64, i64, i64, i64, i64, i64, i64, i64);

fn random_case(rng: &mut bcag_harness::rng::Rng) -> Case {
    let p = rng.random_range(1..=6);
    let k_a = rng.random_range(1..=10);
    let k_b = rng.random_range(1..=10);
    let c = rng.random_range(1..=40);
    let l_a = rng.random_range(0..=25);
    let s_a = rng.random_range(1..=9);
    let l_b = rng.random_range(0..=25);
    let s_b = rng.random_range(1..=9);
    let type_sel = rng.random_range(0..=4);
    (p, k_a, k_b, c, l_a, s_a, l_b, s_b, type_sel)
}

/// The deterministic counter totals of one execution: `(elements_moved,
/// elements_nonlocal, messages_sent, bytes_packed)`.
type Totals = (u64, u64, u64, u64);

/// Runs `A(sec_a) = B(sec_b)` once on the pool over `kind` and returns
/// the final global contents plus the deterministic counter totals.
fn run_once<T, F>(
    p: i64,
    k_a: i64,
    k_b: i64,
    sec_a: &RegularSection,
    sec_b: &RegularSection,
    kind: TransportKind,
    make: &F,
) -> (Vec<T>, Totals)
where
    T: PackValue + Debug + PartialEq,
    F: Fn(i64) -> T,
{
    let n_a = sec_a.normalized().hi + 1;
    let n_b = sec_b.normalized().hi + 1;
    let bg: Vec<T> = (0..n_b).map(make).collect();
    let b = DistArray::from_global(p, k_b, &bg).unwrap();
    let mut a = DistArray::new(p, k_a, n_a, make(-1)).unwrap();
    let (result, trace) = bcag_trace::capture(|| assign_copy_on(&mut a, sec_a, &b, sec_b, kind));
    result.unwrap();
    (
        a.to_global(),
        (
            trace.counter_total("elements_moved"),
            trace.counter_total("elements_nonlocal"),
            trace.counter_total("messages_sent"),
            trace.counter_total("bytes_packed"),
        ),
    )
}

/// The same four totals in closed form, straight from the schedule.
fn closed_form<T>(
    p: i64,
    k_a: i64,
    k_b: i64,
    sec_a: &RegularSection,
    sec_b: &RegularSection,
) -> Totals {
    let sched = CommSchedule::build_lattice(p, k_a, sec_a, k_b, sec_b).unwrap();
    let total = sched.total_elements() as u64;
    (
        total,
        sched.nonlocal_elements() as u64,
        sched.nonempty_nonlocal_pairs() as u64,
        total * std::mem::size_of::<T>() as u64,
    )
}

/// Pooled runs on both payload forms must reproduce the sequential
/// oracle's contents and the schedule's closed-form counter totals.
fn check_case<T, F>(case: &Case, make: F)
where
    T: PackValue + Debug + PartialEq,
    F: Fn(i64) -> T,
{
    let &(p, k_a, k_b, c, l_a, s_a, l_b, s_b, _) = case;
    let sec_a = RegularSection::new(l_a, l_a + s_a * (c - 1), s_a).unwrap();
    let sec_b = RegularSection::new(l_b, l_b + s_b * (c - 1), s_b).unwrap();
    let mut want: Vec<T> = (0..=sec_a.normalized().hi).map(|_| make(-1)).collect();
    for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
        want[ia as usize] = make(ib);
    }
    let want_totals = closed_form::<T>(p, k_a, k_b, &sec_a, &sec_b);
    let ctx = format!(
        "p={p} k_a={k_a} k_b={k_b} sec_a={l_a}:{}:{s_a} sec_b={l_b}:{}:{s_b}",
        sec_a.u, sec_b.u,
    );
    for kind in TransportKind::ALL {
        let (got, totals) = run_once(p, k_a, k_b, &sec_a, &sec_b, kind, &make);
        assert_eq!(got, want, "{} contents diverged: {ctx}", kind.name());
        assert_eq!(
            totals,
            want_totals,
            "{} counters diverged: {ctx}",
            kind.name()
        );
    }
}

#[test]
fn pooled_matches_oracle_and_closed_forms_randomized() {
    let _serial = serial();
    let gen = prop::from_fn(random_case);
    let cfg = prop::Config {
        cases: 60,
        ..Default::default()
    };
    prop::check_with(
        &cfg,
        "pooled == oracle (contents) == closed forms (counter totals)",
        &gen,
        |case| match case.8 {
            0 => check_case(case, |i| 10_000 + 3 * i),
            1 => check_case(case, |i| i as f64 * 0.5 - 7.0),
            2 => check_case(case, |i| (i & 0xff) as u8),
            3 => check_case(case, |i| [i as f64, -i as f64, 0.25 * i as f64, 1.0]),
            _ => check_case(case, |i| format!("v{i}")),
        },
    );
}

#[test]
fn pooled_matches_oracle_on_degenerate_layouts() {
    let _serial = serial();
    // Edge shapes the generator rarely hits: single node, k = 1 fine
    // cyclic, one giant block, single-element sections.
    for case in [
        (1i64, 1i64, 1i64, 5i64, 0i64, 1i64, 0i64, 1i64, 0i64),
        (6, 1, 1, 30, 0, 1, 3, 2, 0),
        (4, 100, 1, 20, 0, 1, 0, 5, 0),
        (3, 2, 9, 1, 7, 3, 11, 4, 0),
    ] {
        check_case(&case, |i| 100 + i);
    }
}

#[test]
fn panic_in_pooled_node_is_reraised_and_pool_survives() {
    let _serial = serial();
    let machine = Machine::with_pool(3);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        machine.run_collect(|m| {
            if m == 1 {
                panic!("node boom");
            }
            m
        })
    }));
    let payload = unwound.expect_err("node panic must re-raise on the dispatcher");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "node boom");

    // The epoch was poisoned and drained; the same resident pool keeps
    // serving later launches with no hang and no stale envelopes.
    assert_eq!(machine.run_collect(|m| m * 2), vec![0, 2, 4]);
    let mut locals: Vec<Vec<i64>> = vec![vec![0; 4]; 3];
    machine.run(&mut locals, |m, local| local[0] = m as i64 + 10);
    assert_eq!(
        locals.iter().map(|l| l[0]).collect::<Vec<_>>(),
        vec![10, 11, 12]
    );
}

#[test]
fn fused_copies_run_on_a_pool_recovered_from_poison() {
    // A node program that dies mid-epoch poisons the pool; the very next
    // fused copy through the same resident pool must complete exactly.
    let _serial = serial();
    let sec = RegularSection::new(0, 59, 1).unwrap();
    let bg: Vec<i64> = (0..60).collect();
    let b = DistArray::from_global(2, 7, &bg).unwrap();
    let mut a = DistArray::new(2, 3, 60, 0i64).unwrap();
    assign_array(&mut a, &sec, &b, &sec).unwrap();
    assert_eq!(a.to_global(), bg);

    let machine = Machine::with_pool(2);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        machine.run_collect(|m| {
            if m == 0 {
                panic!("early exit");
            }
            m
        })
    }));
    assert!(unwound.is_err());
    let mut a2 = DistArray::new(2, 3, 60, 0i64).unwrap();
    assign_array(&mut a2, &sec, &b, &sec).unwrap();
    assert_eq!(a2.to_global(), bg);
}
