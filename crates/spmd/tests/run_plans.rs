//! Exactness obligation of the run-coalescing optimization.
//!
//! A [`bcag_core::runs::RunPlan`] is only an *encoding* of the access
//! sequence — folding the gap table into constant-gap runs must never
//! change which addresses are visited or in what order. These tests pin
//! that exactly, over randomized layouts: the run plan's expansion equals
//! the element-by-element gap-table walk, pack and unpack move exactly
//! the elements the sequential global-index oracle assigns each node (in
//! global order, with matching element counters), and the run-loop
//! assign matches its per-element reference shape.

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_harness::prop;
use bcag_spmd::assign::{apply_section, plan_section};
use bcag_spmd::codeshapes::CodeShape;
use bcag_spmd::darray::DistArray;
use bcag_spmd::pack::{pack, pack_with_buf, unpack};

/// Element-by-element reference walk of `(start, last, delta_m)` — the
/// oracle the run plan must reproduce address-for-address.
fn walk(start: Option<i64>, last: i64, delta_m: &[i64]) -> Vec<i64> {
    let Some(start) = start else { return vec![] };
    let mut out = Vec::new();
    let mut addr = start;
    let mut i = 0usize;
    while addr <= last {
        out.push(addr);
        if delta_m.is_empty() {
            break;
        }
        addr += delta_m[i];
        i += 1;
        if i == delta_m.len() {
            i = 0;
        }
    }
    out
}

/// Random `(p, k, section, n)` with the section guaranteed in-bounds.
fn layout_gen() -> impl prop::Gen<Value = (i64, i64, i64, i64, i64, i64)> {
    prop::from_fn(|rng| {
        let p = rng.random_range(1..=8);
        let k = rng.random_range(1..=24);
        let l = rng.random_range(0..=40);
        let s = rng.random_range(1..=13);
        let count = rng.random_range(0..=160);
        let u = if count == 0 {
            l - 1
        } else {
            l + s * (count - 1)
        };
        let n = u.max(l) + 1 + rng.random_range(0..=10);
        (p, k, l, u, s, n)
    })
}

#[test]
fn run_plan_expansion_equals_gap_table_walk() {
    prop::check(
        "runplan-expansion-oracle",
        &layout_gen(),
        |&(p, k, l, u, s, _n)| {
            let sec = RegularSection::new(l, u, s).unwrap();
            let plans = plan_section(p, k, &sec, Method::Lattice).unwrap();
            for (m, plan) in plans.iter().enumerate() {
                let expect = walk(plan.start, plan.last, &plan.delta_m);
                assert_eq!(
                    plan.runs.expand(),
                    expect,
                    "p={p} k={k} sec=({l}:{u}:{s}) m={m}"
                );
                assert_eq!(plan.runs.count() as usize, expect.len());
            }
        },
    );
}

/// Sequential global-index oracle for block-cyclic ownership: element
/// `i` of a `cyclic(k)` array on `p` nodes lives on node `(i / k) mod p`.
fn owner(i: i64, p: i64, k: i64) -> i64 {
    (i / k) % p
}

#[test]
fn pack_unpack_match_global_index_oracle() {
    prop::check(
        "pack-unpack-oracle",
        &layout_gen(),
        |&(p, k, l, u, s, n)| {
            let sec = RegularSection::new(l, u, s).unwrap();
            let data: Vec<i64> = (0..n).map(|i| i * 1_000_003 + 7).collect();
            let arr = DistArray::from_global(p, k, &data).unwrap();
            let mut buf = Vec::new();
            let mut rebuilt = DistArray::new(p, k, n, -1i64).unwrap();
            let mut packed = 0u64;
            for m in 0..p {
                let (r, t) = bcag_trace::capture(|| {
                    pack_with_buf(&arr, &sec, m, Method::Lattice, &mut buf).unwrap();
                    unpack(&mut rebuilt, &sec, m, Method::Lattice, &buf)
                });
                r.unwrap();
                let want: Vec<i64> = sec
                    .iter()
                    .filter(|&i| owner(i, p, k) == m)
                    .map(|i| data[i as usize])
                    .collect();
                assert_eq!(buf, want, "packed buffer, m={m}");
                packed += t.counter_total("elements_packed");
                assert_eq!(t.counter_total("elements_unpacked"), buf.len() as u64);
            }
            assert_eq!(packed as i64, sec.count(), "element counter total");
            let want: Vec<i64> = (0..n)
                .map(|i| {
                    if sec.contains(i) {
                        data[i as usize]
                    } else {
                        -1
                    }
                })
                .collect();
            assert_eq!(rebuilt.to_global(), want, "rebuilt image");
        },
    );
}

#[test]
fn run_loop_assign_matches_reference_shape() {
    prop::check(
        "assign-shape-equivalence",
        &layout_gen(),
        |&(p, k, l, u, s, n)| {
            let sec = RegularSection::new(l, u, s).unwrap();
            let data: Vec<i64> = (0..n).map(|i| i % 89).collect();
            let mut by_runs = DistArray::from_global(p, k, &data).unwrap();
            let mut by_branch = by_runs.clone();
            apply_section(
                &mut by_runs,
                &sec,
                Method::Lattice,
                CodeShape::RunLoop,
                |x| *x = *x * 3 + 1,
            )
            .unwrap();
            apply_section(
                &mut by_branch,
                &sec,
                Method::Lattice,
                CodeShape::BranchLoop,
                |x| *x = *x * 3 + 1,
            )
            .unwrap();
            assert_eq!(by_runs.to_global(), by_branch.to_global());
        },
    );
}

// ---- Degenerate shapes and error paths (satellite: edge-case tests) ----

#[test]
fn unpack_rejects_buffer_too_short() {
    let mut arr = DistArray::new(4, 8, 200, 0i64).unwrap();
    let sec = RegularSection::new(0, 199, 3).unwrap();
    let buf = pack(&arr, &sec, 2, Method::Lattice).unwrap();
    assert!(buf.len() > 1);
    let err = unpack(&mut arr, &sec, 2, Method::Lattice, &buf[..buf.len() - 1]);
    assert!(err.is_err());
}

#[test]
fn unpack_rejects_buffer_too_long() {
    let mut arr = DistArray::new(4, 8, 200, 0i64).unwrap();
    let sec = RegularSection::new(0, 199, 3).unwrap();
    let mut buf = pack(&arr, &sec, 2, Method::Lattice).unwrap();
    buf.push(0);
    assert!(unpack(&mut arr, &sec, 2, Method::Lattice, &buf).is_err());
}

#[test]
fn unpack_rejects_nonempty_buffer_for_empty_owner() {
    // cyclic(1) on p=2: processor 1 owns no even-indexed element.
    let mut arr = DistArray::new(2, 1, 40, 0i64).unwrap();
    let sec = RegularSection::new(0, 39, 2).unwrap();
    assert!(unpack(&mut arr, &sec, 1, Method::Lattice, &[]).is_ok());
    assert!(unpack(&mut arr, &sec, 1, Method::Lattice, &[5]).is_err());
}

#[test]
fn degenerate_plans_empty_section_and_single_element() {
    // Empty section: every node's plan is empty, expansion is empty.
    let empty = RegularSection::new(30, 10, 3).unwrap();
    for plan in plan_section(4, 8, &empty, Method::Lattice).unwrap() {
        assert!(plan.runs.is_empty());
        assert_eq!(plan.runs.count(), 0);
        assert_eq!(plan.runs.expand(), Vec::<i64>::new());
    }
    // Single-element section: exactly one node holds exactly one address.
    let single = RegularSection::new(55, 55, 3).unwrap();
    let plans = plan_section(4, 8, &single, Method::Lattice).unwrap();
    let nonempty: Vec<_> = plans.iter().filter(|pl| !pl.runs.is_empty()).collect();
    assert_eq!(nonempty.len(), 1);
    assert_eq!(nonempty[0].runs.count(), 1);
    assert_eq!(nonempty[0].runs.expand(), vec![nonempty[0].start.unwrap()]);
    // delta_m empty (one element per node at most): k=1, count <= p.
    let tiny = RegularSection::new(0, 2, 1).unwrap();
    for plan in plan_section(4, 1, &tiny, Method::Lattice).unwrap() {
        let expect = walk(plan.start, plan.last, &plan.delta_m);
        assert_eq!(plan.runs.expand(), expect);
    }
}
