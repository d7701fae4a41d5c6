//! Two-dimensional array assignment with redistribution:
//! `A(sec₀ₐ, sec₁ₐ) = B(sec₀_b, sec₁_b)` between matrices with different
//! mappings.
//!
//! Because HPF mappings are per-dimension products, the communication
//! structure of a 2-D assignment is the product of two 1-D structures: the
//! element at section rank `(t₀, t₁)` moves from
//! `(owner⁰_B(t₀), owner¹_B(t₁))` to `(owner⁰_A(t₀), owner¹_A(t₁))`.
//! The schedule is built from the per-dimension owned-rank lists (each a
//! product of the 1-D access machinery) rather than per-element ownership
//! tests.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;

use crate::csr::Csr;
use crate::dmatrix::DistMatrix;

/// Per-dimension rank decomposition: row `m` lists, in increasing rank
/// order, the section ranks `t` whose element grid coordinate `m` owns,
/// together with the per-rank local index — one flat CSR buffer instead of
/// a vector per coordinate.
fn dim_rank_owners(
    p: i64,
    k: i64,
    sec: &RegularSection,
    method: Method,
) -> Result<Csr<(i64, i64)>> {
    if sec.s <= 0 {
        return Err(BcagError::Precondition(
            "2-D assignment requires ascending triplets",
        ));
    }
    let problem = Problem::new(p, k, sec.l, sec.s)?;
    let lay = bcag_core::Layout::from_raw(p, k);
    let mut out = Csr::builder();
    for m in 0..p {
        let pat = bcag_core::method::build(&problem, m, method)?;
        for acc in pat.iter_to(sec.u) {
            out.push(((acc.global - sec.l) / sec.s, lay.local_addr(acc.global)));
        }
        out.finish_row();
    }
    Ok(out.finish(p as usize))
}

/// Executes `A(sec_a[0], sec_a[1]) = B(sec_b[0], sec_b[1])`.
///
/// Both matrices must be rank-2 with identity alignment; sections must
/// conform per dimension and lie inside their matrices. The two matrices
/// may use entirely different grids and blockings — each side is
/// decomposed with its own per-dimension rank lists. Data moves through
/// a rank-space staging buffer (dense over the section), standing in for
/// the message-passing exchange; the message-level simulation lives in
/// [`crate::comm`] for the 1-D case.
pub fn assign_matrix<T>(
    a: &mut DistMatrix<T>,
    sec_a: &[RegularSection; 2],
    b: &DistMatrix<T>,
    sec_b: &[RegularSection; 2],
) -> Result<()>
where
    T: Clone + Send + Sync + Default,
{
    for d in 0..2 {
        if sec_a[d].count() != sec_b[d].count() {
            return Err(BcagError::Precondition(
                "2-D sections must conform per dimension",
            ));
        }
    }
    a.check_section(sec_a)?;
    b.check_section(sec_b)?;
    let method = Method::Lattice;

    // --- Pack phase on B: rank-space staging buffer (t0-major = column
    // --- major in rank space to match local storage order).
    let n0 = sec_b[0].count();
    let n1 = sec_b[1].count();
    let mut staged: Vec<T> = vec![T::default(); (n0 * n1) as usize];
    {
        let bmap = b.map();
        let dims = bmap.dims();
        let d0 = dim_rank_owners(dims[0].procs(), dims[0].block_size(), &sec_b[0], method)?;
        let d1 = dim_rank_owners(dims[1].procs(), dims[1].block_size(), &sec_b[1], method)?;
        for coords in bmap.grid().iter_coords() {
            let rank = bmap.grid().linearize(&coords)? as usize;
            let local = b.local(rank as i64);
            let extents = bmap.local_extents(&coords)?;
            for &(t1, li1) in d1.row(coords[1] as usize) {
                for &(t0, li0) in d0.row(coords[0] as usize) {
                    let addr = li0 + li1 * extents[0];
                    staged[(t0 + t1 * n0) as usize] = local[addr as usize].clone();
                }
            }
        }
    }

    // --- Unpack phase on A.
    let amap = a.map().clone();
    let dims = amap.dims();
    let d0 = dim_rank_owners(dims[0].procs(), dims[0].block_size(), &sec_a[0], method)?;
    let d1 = dim_rank_owners(dims[1].procs(), dims[1].block_size(), &sec_a[1], method)?;
    for coords in amap.grid().iter_coords() {
        let rank = amap.grid().linearize(&coords)?;
        let extents = amap.local_extents(&coords)?;
        let local = a.local_mut(rank);
        for &(t1, li1) in d1.row(coords[1] as usize) {
            for &(t0, li0) in d0.row(coords[0] as usize) {
                let addr = li0 + li1 * extents[0];
                local[addr as usize] = staged[(t0 + t1 * n0) as usize].clone();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcag_hpf::{ArrayMap, DimMap, Dist};

    fn mk(n: i64, k0: i64, k1: i64) -> DistMatrix<i64> {
        let map = ArrayMap::new(vec![
            DimMap::simple(n, 2, Dist::CyclicK(k0)).unwrap(),
            DimMap::simple(n, 2, Dist::CyclicK(k1)).unwrap(),
        ])
        .unwrap();
        DistMatrix::new(map, 0i64).unwrap()
    }

    #[test]
    fn remapped_submatrix_copy() {
        let n = 24;
        let mut b = mk(n, 3, 5);
        for i in 0..n {
            for j in 0..n {
                b.set(i, j, 100 * i + j).unwrap();
            }
        }
        let mut a = mk(n, 4, 2);
        let sec_a = [
            RegularSection::new(0, 21, 3).unwrap(),
            RegularSection::new(1, 23, 2).unwrap(),
        ];
        let sec_b = [
            RegularSection::new(2, 23, 3).unwrap(),
            RegularSection::new(0, 22, 2).unwrap(),
        ];
        assign_matrix(&mut a, &sec_a, &b, &sec_b).unwrap();
        let dense = a.to_dense().unwrap();
        for t0 in 0..8 {
            for t1 in 0..12 {
                let (ia, ja) = (3 * t0, 1 + 2 * t1);
                let (ib, jb) = (2 + 3 * t0, 2 * t1);
                assert_eq!(
                    dense[ia as usize][ja as usize],
                    100 * ib + jb,
                    "t=({t0},{t1})"
                );
            }
        }
        // Untouched elements stay zero.
        assert_eq!(dense[1][1], 0);
    }

    #[test]
    fn transpose_like_exchange() {
        // Same element set, different blockings: full-matrix copy.
        let n = 20;
        let mut b = mk(n, 7, 1);
        for i in 0..n {
            for j in 0..n {
                b.set(i, j, i * 31 + j * 7).unwrap();
            }
        }
        let mut a = mk(n, 2, 6);
        let full = [
            RegularSection::new(0, n - 1, 1).unwrap(),
            RegularSection::new(0, n - 1, 1).unwrap(),
        ];
        assign_matrix(&mut a, &full, &b, &full).unwrap();
        assert_eq!(a.to_dense().unwrap(), b.to_dense().unwrap());
    }

    #[test]
    fn conformance_enforced() {
        let b = mk(10, 2, 2);
        let mut a = mk(10, 2, 2);
        let sec_a = [
            RegularSection::new(0, 9, 1).unwrap(),
            RegularSection::new(0, 9, 1).unwrap(),
        ];
        let sec_b = [
            RegularSection::new(0, 9, 2).unwrap(),
            RegularSection::new(0, 9, 1).unwrap(),
        ];
        assert!(assign_matrix(&mut a, &sec_a, &b, &sec_b).is_err());
    }

    #[test]
    fn out_of_range_sections_are_errors() {
        let b = mk(10, 2, 3);
        let mut a = mk(10, 3, 2);
        let full = RegularSection::new(0, 9, 1).unwrap();
        let past = RegularSection::new(0, 12, 1).unwrap();
        let shifted = RegularSection::new(3, 12, 1).unwrap();
        for (sec_a, sec_b) in [
            ([past, full], [past, full]),
            ([full, full], [full, shifted]),
            ([full, shifted], [full, full]),
        ] {
            assert!(matches!(
                assign_matrix(&mut a, &sec_a, &b, &sec_b),
                Err(BcagError::Precondition(_))
            ));
        }
        let strided_past = RegularSection::new(0, 13, 3).unwrap();
        assert!(a
            .apply_section(&[full, strided_past], |_, _, x| *x = -1)
            .is_err());
        assert!(a.to_dense().unwrap().iter().flatten().all(|&x| x == 0));
    }
}
