//! End-to-end SPMD semantics: the simulated distributed execution of array
//! statements must match sequential Fortran-90 semantics, for every method,
//! code shape, and layout combination.

use bcag::core::method::Method;
use bcag::core::RegularSection;
use bcag::spmd::{apply_section, assign_array, assign_scalar, CodeShape, CommSchedule, DistArray};
use bcag_harness::Rng;

fn seq_scalar(n: i64, sec: &RegularSection, value: f64) -> Vec<f64> {
    let mut v = vec![0.0; n as usize];
    for i in sec.iter() {
        v[i as usize] = value;
    }
    v
}

#[test]
fn randomized_scalar_assignments() {
    let mut rng = Rng::seed_from_u64(42);
    for trial in 0..120 {
        let p = rng.random_range(1..=8);
        let k = rng.random_range(1..=16);
        let n = rng.random_range(1..=2_000);
        let l = rng.random_range(0..n);
        let u = rng.random_range(0..n);
        let s: i64 = rng.random_range(1..=40);
        let s = if rng.random_bool(0.3) { -s } else { s };
        let Ok(sec) = RegularSection::new(l, u, s) else {
            continue;
        };
        let shape = CodeShape::ALL[trial % 4];
        let method = Method::GENERAL[trial % Method::GENERAL.len()];

        let mut arr = DistArray::new(p, k, n, 0.0f64).unwrap();
        assign_scalar(&mut arr, &sec, 7.5, method, shape).unwrap();
        assert_eq!(
            arr.to_global(),
            seq_scalar(n, &sec, 7.5),
            "p={p} k={k} n={n} sec={l}:{u}:{s} shape={} method={}",
            shape.label(),
            method.name()
        );
    }
}

#[test]
fn apply_preserves_untouched_elements() {
    let n = 1_000i64;
    let sec = RegularSection::new(17, 983, 21).unwrap();
    let mut arr = DistArray::from_global(4, 8, &(0..n).collect::<Vec<i64>>()).unwrap();
    apply_section(&mut arr, &sec, Method::Lattice, CodeShape::SplitLoop, |x| {
        *x = -*x
    })
    .unwrap();
    let g = arr.to_global();
    for i in 0..n {
        let expect = if sec.contains(i) { -i } else { i };
        assert_eq!(g[i as usize], expect);
    }
}

#[test]
fn randomized_cross_layout_assignments() {
    let mut rng = Rng::seed_from_u64(0xD15C);
    for _ in 0..60 {
        let p = rng.random_range(1..=6);
        let k_a = rng.random_range(1..=12);
        let k_b = rng.random_range(1..=12);
        let n = rng.random_range(50..=800);
        // Conforming sections: same count.
        let count = rng.random_range(1..=40);
        let s_a = rng.random_range(1..=8);
        let s_b = rng.random_range(1..=8);
        let max_l_a = n - 1 - (count - 1) * s_a;
        let max_l_b = n - 1 - (count - 1) * s_b;
        if max_l_a < 0 || max_l_b < 0 {
            continue;
        }
        let l_a = rng.random_range(0..=max_l_a);
        let l_b = rng.random_range(0..=max_l_b);
        let sec_a = RegularSection::new(l_a, l_a + (count - 1) * s_a, s_a).unwrap();
        let sec_b = RegularSection::new(l_b, l_b + (count - 1) * s_b, s_b).unwrap();

        let data: Vec<i64> = (0..n).map(|i| rng.random_range(0..1_000_000) + i).collect();
        let b = DistArray::from_global(p, k_b, &data).unwrap();
        let mut a = DistArray::new(p, k_a, n, -1i64).unwrap();
        assign_array(&mut a, &sec_a, &b, &sec_b).unwrap();

        let mut expect = vec![-1i64; n as usize];
        for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
            expect[ia as usize] = data[ib as usize];
        }
        assert_eq!(
            a.to_global(),
            expect,
            "p={p} kA={k_a} kB={k_b} secA={l_a}+{count}x{s_a} secB={l_b}+{count}x{s_b}"
        );
    }
}

#[test]
fn schedule_element_conservation() {
    // Every section element appears in exactly one (src, dst) set.
    let p = 4i64;
    let sec_a = RegularSection::new(3, 403, 5).unwrap();
    let sec_b = RegularSection::new(0, 400, 5).unwrap();
    let sched = CommSchedule::build(p, 8, &sec_a, 3, &sec_b, Method::Lattice).unwrap();
    assert_eq!(sched.total_elements() as i64, sec_a.count());
    // Destination locals are unique (no element written twice).
    let mut dst_locals: Vec<(i64, i64)> = Vec::new();
    for src in 0..p {
        for dst in 0..p {
            for tr in sched.transfers(src, dst) {
                dst_locals.push((dst, tr.dst_local));
            }
        }
    }
    dst_locals.sort_unstable();
    let before = dst_locals.len();
    dst_locals.dedup();
    assert_eq!(dst_locals.len(), before, "duplicate destination writes");
}

#[test]
fn methods_equivalent_through_full_stack() {
    // Same assignment executed with every general method must leave the
    // array in the same state.
    let n = 3_000i64;
    let sec = RegularSection::new(11, 2_987, 37).unwrap();
    let mut states = Vec::new();
    for method in Method::GENERAL {
        let mut arr = DistArray::new(8, 16, n, 0i64).unwrap();
        apply_section(&mut arr, &sec, method, CodeShape::TwoTableLoop, |x| *x += 1).unwrap();
        states.push(arr.to_global());
    }
    for w in states.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn degenerate_layouts() {
    // Single processor: everything local, all shapes still correct.
    let sec = RegularSection::new(0, 99, 7).unwrap();
    for shape in CodeShape::ALL {
        let mut arr = DistArray::new(1, 4, 100, 0.0f64).unwrap();
        assign_scalar(&mut arr, &sec, 1.0, Method::Lattice, shape).unwrap();
        assert_eq!(arr.to_global(), seq_scalar(100, &sec, 1.0));
    }
    // k = 1 (pure cyclic) and huge k (block).
    for k in [1i64, 1000] {
        let mut arr = DistArray::new(4, k, 100, 0.0f64).unwrap();
        assign_scalar(&mut arr, &sec, 1.0, Method::Lattice, CodeShape::BranchLoop).unwrap();
        assert_eq!(arr.to_global(), seq_scalar(100, &sec, 1.0));
    }
}
