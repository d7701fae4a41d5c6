//! Data-movement throughput of fused copies.
//!
//! Each measurement times one [`assign_array`] copy — the copy epoch of
//! the statement's cached fused program: one message per non-empty
//! (src, dst) pair with in-place self-transfers. The program is compiled
//! by the warmup, so the timed region is the warm path (one cache hit,
//! one pool dispatch). Sweeps machine size, stride and element size;
//! elements/sec is `count / median_ns * 1e9` from the report.

use std::hint::black_box;

use bcag_harness::bench::Bench;

use bcag_core::section::RegularSection;
use bcag_spmd::{assign_array, DistArray, PackValue};

/// One measurement for a `cyclic(8) = cyclic(3)` redistribution of
/// `count` elements with the given strides.
fn bench_copy<T: PackValue + Default>(
    bench: &mut Bench,
    group: &str,
    label: &str,
    p: i64,
    count: i64,
    s_a: i64,
    s_b: i64,
    make: impl Fn(i64) -> T,
) {
    let (k_a, k_b) = (8i64, 3i64);
    let sec_a = RegularSection::new(2, 2 + (count - 1) * s_a, s_a).unwrap();
    let sec_b = RegularSection::new(1, 1 + (count - 1) * s_b, s_b).unwrap();
    let n_a = sec_a.normalized().hi + 1;
    let n_b = sec_b.normalized().hi + 1;
    let bg: Vec<T> = (0..n_b).map(make).collect();
    let b = DistArray::from_global(p, k_b, &bg).unwrap();
    let mut a = DistArray::new(p, k_a, n_a, T::default()).unwrap();
    bench.group(group).bench(&format!("batched/{label}"), || {
        assign_array(&mut a, &sec_a, &b, &sec_b).unwrap();
        black_box(a.local(0).len())
    });
}

fn main() {
    let mut bench = Bench::from_env("comm_throughput");
    for p in [4i64, 32] {
        let group = format!("p{p}");
        bench_copy::<i64>(
            &mut bench,
            &group,
            "i64/dense/n100000",
            p,
            100_000,
            1,
            1,
            |i| i,
        );
        bench_copy::<i64>(
            &mut bench,
            &group,
            "i64/strided/n50000",
            p,
            50_000,
            3,
            2,
            |i| i,
        );
        bench_copy::<u8>(
            &mut bench,
            &group,
            "u8/dense/n100000",
            p,
            100_000,
            1,
            1,
            |i| i as u8,
        );
        bench_copy::<[f64; 4]>(
            &mut bench,
            &group,
            "f64x4/dense/n25000",
            p,
            25_000,
            1,
            1,
            |i| [i as f64; 4],
        );
    }
    bench.finish();
}
