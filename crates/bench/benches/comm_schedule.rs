//! Ablation A4: communication-schedule construction — the period build
//! vs the closed-form lattice/CRT construction.
//!
//! The period build walks each source's AM table over one period of
//! section ranks, `min(L, n)` with `L = lcm(P_a, P_b)`, and stores that
//! period's runs, so its cost is O(period) however long the section is.
//! The CRT construction costs O(p²·k_a·k_b) setup plus its output, every
//! transfer of every row, so its arm stops at 10⁵ elements. Sweep the
//! section length at fixed layouts.

use std::hint::black_box;

use bcag_harness::bench::Bench;

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_spmd::comm::CommSchedule;

fn main() {
    let mut bench = Bench::from_env("comm_schedule");
    let p = 8i64;
    let (k_a, k_b) = (8i64, 3i64);
    let mut group = bench.group("comm_schedule");
    for count in [100i64, 1_000, 10_000, 100_000, 1_000_000] {
        let sec_a = RegularSection::new(2, 2 + (count - 1) * 4, 4).unwrap();
        let sec_b = RegularSection::new(1, 1 + (count - 1) * 4, 4).unwrap();
        group.bench(&format!("period/{count}"), || {
            black_box(CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap())
        });
        if count <= 100_000 {
            group.bench(&format!("lattice-crt/{count}"), || {
                black_box(CommSchedule::build_lattice(p, k_a, &sec_a, k_b, &sec_b).unwrap())
            });
        }
    }
    bench.finish();
}
