//! Property tests of the layout walks — `DistArray::{fill_with,
//! section_values, from_global, to_global}` and `DistMatrix::{fill_with,
//! section_values, to_dense}` — against the per-element `get`/`set`
//! oracle, over random layouts, grids and sections.

use bcag_core::aligned::Alignment;
use bcag_core::error::BcagError;
use bcag_core::section::RegularSection;
use bcag_harness::prop::{check, from_fn};
use bcag_harness::rng::Rng;
use bcag_hpf::{ArrayMap, DimMap, Dist};
use bcag_spmd::{DistArray, DistMatrix};

/// A random section over `0..n` for a layout of row length `pk`: strides
/// up to `3pk + 1` either way (so `|s| ≥ pk` and `s mod pk ≥ k` occur),
/// empty and single-element sections, and — a quarter of the time — no
/// attempt to fit, so either end may fall outside `0..n` (a descending
/// section may even end below 0, which only a struct literal can build).
fn section(rng: &mut Rng, n: i64, pk: i64) -> RegularSection {
    let reach = 3 * pk + 1;
    let mut s = rng.random_range(1..=reach);
    if rng.random_bool(0.5) {
        s = -s;
    }
    let mut count = match rng.random_range(0..10) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2..=40),
    };
    let span = |count: i64| (count - 1).max(0) * s.abs();
    let l = if rng.random_bool(0.75) && n > 0 {
        // Fit inside 0..n, shortening the section if it cannot fit.
        count = count.min((n - 1) / s.abs() + 1);
        let lo = if s < 0 { span(count) } else { 0 };
        let hi = if s < 0 { n - 1 } else { n - 1 - span(count) };
        rng.random_range(lo..=hi)
    } else {
        rng.random_range(0..=n + 2 * pk)
    };
    if count == 0 {
        // Empty: the bound lies on the far side of `l`.
        let u = if s > 0 { l - 1 } else { l + 1 };
        return RegularSection { l, u, s };
    }
    let last = l + (count - 1) * s;
    // Overshoot the bound by less than one stride: `count` is unchanged.
    let u = last + s.signum() * rng.random_range(0..s.abs());
    RegularSection { l, u, s }
}

/// A random `cyclic(k)` layout: `p = 1` and `k ≥ n` both occur, and `n`
/// is rarely a multiple of `pk`.
fn layout(rng: &mut Rng) -> (i64, i64, i64) {
    let p = rng.random_range(1..=6);
    let k = rng.random_range(1..=12);
    let n = rng.random_range(0..=3 * p * k + k);
    (p, k, n)
}

fn value(g: i64) -> i64 {
    g * 31 + 7
}

#[test]
fn fill_and_scatter_match_the_per_element_oracle() {
    check(
        "fill_and_scatter_match_the_per_element_oracle",
        &from_fn(layout),
        |&(p, k, n)| {
            let mut oracle = DistArray::new(p, k, n, -1i64).unwrap();
            for g in 0..n {
                oracle.set(g, value(g)).unwrap();
            }
            let mut filled = DistArray::new(p, k, n, -1i64).unwrap();
            filled.fill_with(value);
            assert_eq!(filled, oracle);
            let data: Vec<i64> = (0..n).map(value).collect();
            let scattered = DistArray::from_global(p, k, &data).unwrap();
            assert_eq!(scattered, oracle);
            assert_eq!(oracle.to_global(), data);
        },
    );
}

#[test]
fn section_values_match_the_per_element_oracle() {
    check(
        "section_values_match_the_per_element_oracle",
        &from_fn(|rng: &mut Rng| {
            let (p, k, n) = layout(rng);
            (p, k, n, section(rng, n, p * k))
        }),
        |&(p, k, n, sec)| {
            let data: Vec<i64> = (0..n).map(value).collect();
            let arr = DistArray::from_global(p, k, &data).unwrap();
            let oracle: Result<Vec<i64>, _> = sec.iter().map(|i| arr.get(i).copied()).collect();
            match (arr.section_values(&sec), oracle) {
                (Ok(walk), Ok(expect)) => {
                    assert_eq!(walk.len(), expect.len());
                    assert_eq!(walk.copied().collect::<Vec<_>>(), expect);
                }
                (Err(e), Err(_)) => {
                    assert_eq!(e, BcagError::Precondition("global index out of bounds"));
                }
                (walk, oracle) => panic!(
                    "walk ok = {}, oracle ok = {} for {sec:?}",
                    walk.is_ok(),
                    oracle.is_ok()
                ),
            };
        },
    );
}

/// A random 2-D map: grids up to 3 × 3, block / cyclic / cyclic(k) /
/// serial per dimension, and a non-identity alignment a third of the time.
fn matrix_map(rng: &mut Rng) -> ArrayMap {
    let dims = (0..2)
        .map(|_| {
            let n = rng.random_range(1..=20);
            let p = rng.random_range(1..=3);
            let dist = match rng.random_range(0..4) {
                0 => Dist::Block,
                1 => Dist::Cyclic,
                2 => Dist::CyclicK(rng.random_range(1..=5)),
                _ => Dist::Serial,
            };
            let align = if rng.random_range(0..3) == 0 {
                Alignment::new(rng.random_range(1..=3), rng.random_range(0..=4)).unwrap()
            } else {
                Alignment::IDENTITY
            };
            DimMap::new(n, p, dist, align).unwrap()
        })
        .collect();
    ArrayMap::new(dims).unwrap()
}

#[test]
fn matrix_walks_match_get() {
    check(
        "matrix_walks_match_get",
        &from_fn(|rng: &mut Rng| {
            let map = matrix_map(rng);
            let secs = [0, 1].map(|d| {
                let n = map.dims()[d].extent();
                let scale = rng.random_range(1..=n + 1);
                section(rng, n, scale)
            });
            (map, secs)
        }),
        |(map, secs)| {
            let f = |i: i64, j: i64| (i * 1000 + j) as f64;
            let m = DistMatrix::from_fn(map.clone(), f).unwrap();
            let (rows, cols) = m.extents();
            let dense = m.to_dense().unwrap();
            assert_eq!(dense.len(), rows as usize);
            for i in 0..rows {
                assert_eq!(dense[i as usize].len(), cols as usize);
                for j in 0..cols {
                    assert_eq!(*m.get(i, j).unwrap(), f(i, j), "({i}, {j})");
                    assert_eq!(dense[i as usize][j as usize], f(i, j), "({i}, {j})");
                }
            }
            let oracle: Result<Vec<f64>, _> = secs[0]
                .iter()
                .flat_map(|i| secs[1].iter().map(move |j| (i, j)))
                .map(|(i, j)| m.get(i, j).copied())
                .collect();
            match (m.section_values(secs), oracle) {
                (Ok(walk), Ok(expect)) => assert_eq!(walk.copied().collect::<Vec<_>>(), expect),
                (Err(e), Err(_)) => assert_eq!(e, BcagError::Precondition("index out of bounds")),
                (walk, oracle) => panic!(
                    "walk ok = {}, oracle ok = {} for {secs:?}",
                    walk.is_ok(),
                    oracle.is_ok()
                ),
            };
        },
    );
}
