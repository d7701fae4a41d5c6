//! Transport throughput: boxed (`shm`) vs wire-encoded (`proc`) payloads
//! on the same ring fabric.
//!
//! Each measurement times one fused copy ([`assign_copy_on`]) on the
//! resident pool of the given transport; the program is compiled by the
//! warmup, so the numbers isolate the *payload form*: boxed buffers on
//! the lock-free SPSC rings, and the same rings carrying the serialized
//! wire format (the in-process twin of what `bcag spmd` ships between
//! OS processes — the serialization cost without the pipe cost). Sweeps
//! machine size, stride and element size; elements/sec is
//! `count / median_ns * 1e9` from the report.

use std::hint::black_box;

use bcag_harness::bench::Bench;

use bcag_core::section::RegularSection;
use bcag_spmd::fuse::assign_copy_on;
use bcag_spmd::{DistArray, PackValue, TransportKind};

/// One measurement pair (both transports) for a `cyclic(8) = cyclic(3)`
/// redistribution of `count` elements with the given strides.
fn bench_pair<T: PackValue + Default>(
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
    let mut group = bench.group(group);
    for kind in TransportKind::ALL {
        let mut a = DistArray::new(p, k_a, n_a, T::default()).unwrap();
        group.bench(&format!("{}/{label}", kind.name()), || {
            assign_copy_on(&mut a, &sec_a, &b, &sec_b, kind).unwrap();
            black_box(a.local(0).len())
        });
    }
}

fn main() {
    let mut bench = Bench::from_env("transport_throughput");
    for p in [4i64, 32] {
        let group = format!("p{p}");
        bench_pair::<i64>(
            &mut bench,
            &group,
            "i64/dense/n100000",
            p,
            100_000,
            1,
            1,
            |i| i,
        );
        bench_pair::<i64>(
            &mut bench,
            &group,
            "i64/strided/n50000",
            p,
            50_000,
            3,
            2,
            |i| i,
        );
        bench_pair::<u8>(
            &mut bench,
            &group,
            "u8/dense/n100000",
            p,
            100_000,
            1,
            1,
            |i| i as u8,
        );
        bench_pair::<[f64; 4]>(
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
