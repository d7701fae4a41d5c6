//! Pack/unpack throughput of the run-coalesced buffer fill.
//!
//! Each measurement packs every node's share of one section (plans come
//! from the process-wide cache, so the timed region is the buffer fill
//! alone, not table construction). Packed elements/sec is
//! `count / median_ns * 1e9` from the report. The sweep crosses element
//! type {i64, u8, [f64;4]} × stride s ∈ {1, 2, k/2, k+1} × p ∈ {4, 32}
//! at k = 512:
//!
//! * `s = 1` — the fully-contiguous case: each node's share is one
//!   `extend_from_slice` per course;
//! * `s = 2` — constant wide gaps (every gap is 2): the case a strict
//!   gap-1 notion of "run" would miss entirely;
//! * `s = k/2` — two elements per course, short runs;
//! * `s = k + 1` — every gap differs from its neighbor within a period:
//!   runs degenerate to singletons, the worst case for coalescing.

use std::hint::black_box;

use bcag_harness::bench::Bench;

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_spmd::pack::{pack, pack_with_buf, unpack};
use bcag_spmd::{DistArray, PackValue};

const K: i64 = 512;

/// One (type, p, s) sweep cell: a pack of every node's share.
fn bench_type<T: PackValue + Default>(
    bench: &mut Bench,
    label: &str,
    p: i64,
    s: i64,
    make: impl Fn(i64) -> T,
) {
    // Scale the section so the source array stays cache-resident as the
    // stride grows: the cell measures the buffer fill, not DRAM
    // bandwidth.
    let count = (262_144 / s).max(1024);
    let sec = RegularSection::new(0, s * (count - 1), s).unwrap();
    let n = sec.normalized().hi + 1;
    let data: Vec<T> = (0..n).map(make).collect();
    let arr = DistArray::from_global(p, K, &data).unwrap();
    let mut buf: Vec<T> = Vec::new();
    let mut group = bench.group(&format!("pack_p{p}_s{s}"));
    group.bench(&format!("{label}/n{count}"), || {
        let mut total = 0usize;
        for m in 0..p {
            total += pack_with_buf(&arr, &sec, m, Method::Lattice, &mut buf).unwrap();
        }
        black_box(total)
    });
}

/// Unpack twin of the i64 cell: fill each node's share back from a
/// pre-packed buffer.
fn bench_unpack(bench: &mut Bench, p: i64, s: i64) {
    let count = (262_144 / s).max(1024);
    let sec = RegularSection::new(0, s * (count - 1), s).unwrap();
    let n = sec.normalized().hi + 1;
    let data: Vec<i64> = (0..n).collect();
    let arr = DistArray::from_global(p, K, &data).unwrap();
    let packs: Vec<Vec<i64>> = (0..p)
        .map(|m| pack(&arr, &sec, m, Method::Lattice).unwrap())
        .collect();
    let mut dst = DistArray::new(p, K, n, 0i64).unwrap();
    let mut group = bench.group(&format!("unpack_p{p}_s{s}"));
    group.bench(&format!("i64/n{count}"), || {
        for (m, buf) in packs.iter().enumerate() {
            unpack(&mut dst, &sec, m as i64, Method::Lattice, buf).unwrap();
        }
        black_box(dst.local(0).len())
    });
}

fn main() {
    let mut bench = Bench::from_env("pack_throughput");
    for p in [4i64, 32] {
        for s in [1i64, 2, K / 2, K + 1] {
            bench_type::<i64>(&mut bench, "i64", p, s, |i| i);
            bench_type::<u8>(&mut bench, "u8", p, s, |i| i as u8);
            bench_type::<[f64; 4]>(&mut bench, "f64x4", p, s, |i| [i as f64; 4]);
            bench_unpack(&mut bench, p, s);
        }
    }
    bench.finish();
}
