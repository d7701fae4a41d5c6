//! Statement launch latency on the resident worker pool.
//!
//! The cost under the microscope is the *fixed* per-statement overhead —
//! pool dispatch, epoch barrier, message-buffer recycling — which
//! dominates exactly when statements are small and numerous (the
//! steady-state inner loop of a data-parallel program). Each `stmt`
//! measurement times one complete [`assign_expr`] statement (one fused
//! epoch launch) on a deliberately tiny section; statements/sec is
//! `1e9 / median_ns`.
//!
//! The `xfer` group is the guard in the other direction: a large dense
//! fused copy (mirroring `comm_throughput`'s heaviest case) where
//! launch overhead is noise, pinning that routing through the pool does
//! not tax bulk data movement.

use std::hint::black_box;

use bcag_harness::bench::Bench;

use bcag_core::section::RegularSection;
use bcag_spmd::fuse::assign_copy_on;
use bcag_spmd::{assign_expr, pool, DistArray, TransportKind};

/// One tiny statement `A(0:c-1) = B(1:c) + 1` across two blockings, so
/// every call pays a communicating epoch launch.
fn bench_statements(bench: &mut Bench, p: i64, k: i64) {
    let c = p * k;
    let n = c + 1;
    let sec_a = RegularSection::new(0, c - 1, 1).unwrap();
    let sec_b = RegularSection::new(1, c, 1).unwrap();
    let bg: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let b = DistArray::from_global(p, k + 1, &bg).unwrap();
    let mut group = bench.group(&format!("stmt/p{p}/k{k}"));
    // The schedule cache and the resident pool mean the timed region is
    // pure steady-state after the first iteration.
    pool::warm(p);
    let mut a = DistArray::new(p, k, n, 0.0f64).unwrap();
    group.bench("pooled/assign", || {
        assign_expr(&mut a, &sec_a, &[(&b, sec_b)], |v| v[0] + 1.0).unwrap();
        black_box(a.local(0).len())
    });
}

/// Large-transfer parity: `cyclic(8) = cyclic(3)` dense redistribution of
/// 100k i64 as a fused copy, where data movement dwarfs launch cost.
fn bench_transfer(bench: &mut Bench, p: i64) {
    let count = 100_000i64;
    let (k_a, k_b) = (8i64, 3i64);
    let sec_a = RegularSection::new(2, 2 + count - 1, 1).unwrap();
    let sec_b = RegularSection::new(1, 1 + count - 1, 1).unwrap();
    let n_a = sec_a.normalized().hi + 1;
    let n_b = sec_b.normalized().hi + 1;
    let bg: Vec<i64> = (0..n_b).collect();
    let b = DistArray::from_global(p, k_b, &bg).unwrap();
    let mut group = bench.group(&format!("xfer/p{p}"));
    pool::warm(p);
    let mut a = DistArray::new(p, k_a, n_a, 0i64).unwrap();
    group.bench("pooled/i64/dense/n100000", || {
        assign_copy_on(&mut a, &sec_a, &b, &sec_b, TransportKind::Shm).unwrap();
        black_box(a.local(0).len())
    });
}

fn main() {
    let mut bench = Bench::from_env("exec_latency");
    for p in [4i64, 32] {
        for k in [4i64, 64] {
            bench_statements(&mut bench, p, k);
        }
        bench_transfer(&mut bench, p);
    }
    bench.finish();
}
