//! Redistribution with communication sets: `A(0:n-1:1) = B(0:n-1:1)` where
//! `A` is `cyclic(8)` and `B` is `cyclic(3)`.
//!
//! Changing the block size of a block-cyclic array (e.g. to match the
//! blocking of a ScaLAPACK routine) forces an all-to-all style exchange.
//! The communication sets are computed from the access-sequence machinery
//! (each source processor enumerates its owned RHS elements with the
//! lattice algorithm), and the exchange runs as the copy epoch of the
//! statement's fused program: one message per non-empty processor pair.
//!
//! Run: `cargo run --example transpose_comm`

use bcag::core::method::Method;
use bcag::core::RegularSection;
use bcag::spmd::{assign_array, CommSchedule, DistArray};

fn main() {
    let p = 4i64;
    let n = 240i64;
    let (k_a, k_b) = (8i64, 3i64);

    // B holds the data; A receives it under a different blocking.
    let data: Vec<i64> = (0..n).map(|i| 1_000 + i).collect();
    let b = DistArray::from_global(p, k_b, &data).expect("B");
    let mut a = DistArray::new(p, k_a, n, 0i64).expect("A");

    let sec = RegularSection::new(0, n - 1, 1).expect("section");
    let schedule = CommSchedule::build(p, k_a, &sec, k_b, &sec, Method::Lattice).expect("schedule");

    println!("redistribution cyclic({k_b}) -> cyclic({k_a}), n = {n}, p = {p}");
    println!(
        "{} elements total, {} cross-processor; the cached schedule holds one period, {} bytes",
        schedule.total_elements(),
        schedule.nonlocal_elements(),
        schedule.heap_bytes()
    );
    println!("\nmessage matrix (elements from src row to dst column):");
    print!("{:>8}", "src\\dst");
    for dst in 0..p {
        print!("{dst:>8}");
    }
    println!();
    for src in 0..p {
        print!("{src:>8}");
        for dst in 0..p {
            print!("{:>8}", schedule.pair_len(src, dst));
        }
        println!();
    }

    assign_array(&mut a, &sec, &b, &sec).expect("exchange");
    assert_eq!(a.to_global(), data, "redistribution must preserve contents");
    println!("\ncontents preserved after exchange: ✓");

    // A strided cross-layout assignment too: A(2:230:4) = B(1:229:4).
    let sec_a = RegularSection::new(2, 230, 4).expect("sa");
    let sec_b = RegularSection::new(1, 229, 4).expect("sb");
    let sched2 =
        CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).expect("schedule2");
    assign_array(&mut a, &sec_a, &b, &sec_b).expect("exchange2");
    let ga = a.to_global();
    let ok = sec_a
        .iter()
        .zip(sec_b.iter())
        .all(|(ia, ib)| ga[ia as usize] == data[ib as usize]);
    assert!(ok);
    println!(
        "strided cross-layout assignment A(2:230:4) = B(1:229:4): ✓ \
         ({} elements, {} nonlocal)",
        sched2.total_elements(),
        sched2.nonlocal_elements()
    );
}
