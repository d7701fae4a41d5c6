//! Trace counters vs closed forms.
//!
//! The instrumentation in `fuse.rs` and `pack.rs` counts what the node
//! programs *actually do*; the stats module computes the same quantities in
//! closed form without running anything. These tests pin the two together:
//! every traced total must equal its closed-form twin exactly.

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_harness::prop;
use bcag_spmd::pack::pack;
use bcag_spmd::stats::{comm_stats, load_stats, per_node_packed_from_trace};
use bcag_spmd::{assign_array, CommSchedule, DistArray, Machine};

/// Copies `A(sec_a) = B(sec_b)` under tracing and checks every counter
/// total against the schedule's closed forms.
fn check_execute_counters(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    k_b: i64,
    sec_b: &RegularSection,
) {
    let sched = CommSchedule::build_lattice(p, k_a, sec_a, k_b, sec_b).unwrap();
    let n_a = sec_a.normalized().hi + 1;
    let n_b = sec_b.normalized().hi + 1;
    let src: Vec<f64> = (0..n_b.max(1)).map(|i| i as f64).collect();
    let b = DistArray::from_global(p, k_b, &src).unwrap();
    let mut a = DistArray::new(p, k_a, n_a.max(1), 0.0f64).unwrap();

    let (result, trace) = bcag_trace::capture(|| assign_array(&mut a, sec_a, &b, sec_b));
    result.unwrap();

    let total = sched.total_elements() as u64;
    let nonlocal = sched.nonlocal_elements() as u64;
    let stats = comm_stats(p, k_a, sec_a, k_b, sec_b).unwrap();

    assert_eq!(trace.counter_total("elements_moved"), total);
    assert_eq!(trace.counter_total("elements_nonlocal"), nonlocal);
    assert_eq!(trace.counter_total("messages_sent"), stats.messages as u64);
    assert_eq!(
        trace.counter_total("bytes_packed"),
        total * std::mem::size_of::<f64>() as u64
    );
    // The per-node breakdown sums back to the totals.
    let per_node: u64 = trace.per_node_counter("elements_moved").iter().sum();
    assert_eq!(per_node, total);
}

#[test]
fn execute_counters_match_closed_forms_worked_example() {
    // The paper's (p=4, k=8, 4:301:9) section copied from a cyclic(5) source.
    let sec_a = RegularSection::new(4, 301, 9).unwrap();
    let sec_b = RegularSection::new(2, 68, 2).unwrap();
    // Equal counts: 34 each.
    let sec_a = RegularSection::new(sec_a.l, 4 + 9 * 33, 9).unwrap();
    check_execute_counters(4, 8, &sec_a, 5, &sec_b);
}

#[test]
fn execute_counters_match_closed_forms_identity_copy() {
    // Same layout, same section: everything local, zero messages.
    let sec = RegularSection::new(0, 255, 1).unwrap();
    let src: Vec<i64> = (0..256).collect();
    let b = DistArray::from_global(4, 8, &src).unwrap();
    let mut a = DistArray::new(4, 8, 256, 0i64).unwrap();
    let (result, trace) = bcag_trace::capture(|| assign_array(&mut a, &sec, &b, &sec));
    result.unwrap();
    assert_eq!(trace.counter_total("elements_moved"), 256);
    assert_eq!(trace.counter_total("elements_nonlocal"), 0);
    assert_eq!(trace.counter_total("messages_sent"), 0);
    assert_eq!(a.to_global(), src);
}

#[test]
fn execute_counters_match_closed_forms_randomized() {
    let gen = prop::from_fn(|rng| {
        let p = rng.random_range(1..=5);
        let k_a = rng.random_range(1..=10);
        let k_b = rng.random_range(1..=10);
        let c = rng.random_range(1..=30); // shared element count
        let l_a = rng.random_range(0..=20);
        let s_a = rng.random_range(1..=9);
        let l_b = rng.random_range(0..=20);
        let s_b = rng.random_range(1..=9);
        (p, k_a, k_b, c, l_a, s_a, l_b, s_b)
    });
    let cfg = prop::Config {
        cases: 40,
        ..Default::default()
    };
    prop::check_with(
        &cfg,
        "execute counters == closed forms",
        &gen,
        |&(p, k_a, k_b, c, l_a, s_a, l_b, s_b)| {
            let sec_a = RegularSection::new(l_a, l_a + s_a * (c - 1), s_a).unwrap();
            let sec_b = RegularSection::new(l_b, l_b + s_b * (c - 1), s_b).unwrap();
            check_execute_counters(p, k_a, &sec_a, k_b, &sec_b);
        },
    );
}

#[test]
fn per_node_pack_counts_match_load_stats_randomized() {
    let gen = prop::from_fn(|rng| {
        let p = rng.random_range(1..=6);
        let k = rng.random_range(1..=12);
        let c = rng.random_range(1..=40);
        let l = rng.random_range(0..=30);
        let s = rng.random_range(1..=20);
        (p, k, c, l, s)
    });
    let cfg = prop::Config {
        cases: 40,
        ..Default::default()
    };
    prop::check_with(
        &cfg,
        "LoadStats.per_proc == traced per-node pack counts",
        &gen,
        |&(p, k, c, l, s)| {
            let sec = RegularSection::new(l, l + s * (c - 1), s).unwrap();
            let n = sec.normalized().hi + 1;
            let data: Vec<i64> = (0..n).collect();
            let arr = DistArray::from_global(p, k, &data).unwrap();
            let machine = Machine::new(p);
            // Each node packs its share on its own thread, so the counts
            // land on per-node lanes.
            let (bufs, trace) = bcag_trace::capture(|| {
                machine.run_collect(|m| pack(&arr, &sec, m as i64, Method::Lattice).unwrap())
            });
            let expect = load_stats(p, k, &sec).unwrap();
            let got = per_node_packed_from_trace(&trace, p);
            assert_eq!(got, expect.per_proc, "p={p} k={k} sec={l}:{}:{s}", sec.u);
            // The buffers themselves agree with the counters.
            let lens: Vec<i64> = bufs.iter().map(|b| b.len() as i64).collect();
            assert_eq!(lens, expect.per_proc);
        },
    );
}
