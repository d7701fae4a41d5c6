//! BLAS-1 style kernels over distributed regular sections.
//!
//! The paper's introduction motivates `cyclic(k)` through "the design of
//! scalable libraries for dense linear algebra computations" (Dongarra,
//! van de Geijn, Walker). These are the level-1 building blocks of such a
//! library, each compiled to the owner-computes traversals this crate
//! provides: the vector kernels touch exactly the owned section elements,
//! enumerated by the lattice algorithm.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::runs::RunPlan;
use bcag_core::section::RegularSection;

use crate::assign::apply_section;
use crate::codeshapes::CodeShape;
use crate::darray::DistArray;
use crate::machine::Machine;
use crate::reduce::reduce_section;

/// `x(section) *= alpha` (SCAL).
pub fn scal(x: &mut DistArray<f64>, section: &RegularSection, alpha: f64) -> Result<()> {
    apply_section(x, section, Method::Lattice, CodeShape::RunLoop, move |v| {
        *v *= alpha
    })
}

/// `local[addr] += alpha * xv[addr]` over the run-coalesced traversal:
/// unit-gap segments become slice zips (vectorizable FMA loops), wide-gap
/// segments tight strided loops. Both axpy paths share this kernel.
fn axpy_runs(local: &mut [f64], xv: &[f64], alpha: f64, runs: &RunPlan) {
    runs.for_each_segment(|seg| {
        let a0 = seg.addr as usize;
        let len = seg.len as usize;
        if seg.gap == 1 {
            for (y, x) in local[a0..a0 + len].iter_mut().zip(&xv[a0..a0 + len]) {
                *y += alpha * x;
            }
        } else {
            let gap = seg.gap as usize;
            let span = (len - 1) * gap + 1;
            let ys = local[a0..a0 + span].iter_mut().step_by(gap);
            let xs = xv[a0..a0 + span].iter().step_by(gap);
            for (y, x) in ys.zip(xs) {
                *y += alpha * x;
            }
        }
    });
}

/// `y(sec_y) += alpha * x(sec_x)` (AXPY). Sections must conform and both
/// arrays must share the machine; layouts may differ (the x operand is
/// gathered).
pub fn axpy(
    alpha: f64,
    x: &DistArray<f64>,
    sec_x: &RegularSection,
    y: &mut DistArray<f64>,
    sec_y: &RegularSection,
) -> Result<()> {
    if sec_x.count() != sec_y.count() {
        return Err(BcagError::Precondition("axpy sections must conform"));
    }
    if x.p() != y.p() {
        return Err(BcagError::Precondition(
            "axpy arrays must share the machine",
        ));
    }
    // Fast path: identical layout and identical sections — pure local work,
    // no staging copy.
    if x.k() == y.k() && sec_x == sec_y {
        let plans = crate::cache::plans(y.p(), y.k(), sec_y, Method::Lattice)?;
        let machine = Machine::new(y.p());
        let x_ref = x;
        machine.run(y.locals_mut(), |m, local| {
            let plan = &plans[m];
            if plan.start.is_none() {
                return;
            }
            axpy_runs(local, x_ref.local(m as i64), alpha, &plan.runs);
        });
        return Ok(());
    }
    // General path: gather x's section to y's owners, then combine. The
    // gathered temporary is y-shaped, with x values at y's addresses.
    let mut staged = y.clone();
    crate::statement::assign_array(&mut staged, sec_y, x, sec_x)?;
    let plans = crate::cache::plans(y.p(), y.k(), sec_y, Method::Lattice)?;
    let machine = Machine::new(y.p());
    let staged_ref = &staged;
    machine.run(y.locals_mut(), |m, local| {
        let plan = &plans[m];
        if plan.start.is_none() {
            return;
        }
        axpy_runs(local, staged_ref.local(m as i64), alpha, &plan.runs);
    });
    Ok(())
}

/// `sum |x_i|` over the section (ASUM).
pub fn asum(x: &DistArray<f64>, section: &RegularSection) -> Result<f64> {
    reduce_section(
        x,
        section,
        Method::Lattice,
        CodeShape::BranchLoop,
        0.0,
        |acc, &v| acc + v.abs(),
        |a, b| a + b,
    )
}

/// Euclidean norm over the section (NRM2).
pub fn nrm2(x: &DistArray<f64>, section: &RegularSection) -> Result<f64> {
    let ss = reduce_section(
        x,
        section,
        Method::Lattice,
        CodeShape::BranchLoop,
        0.0,
        |acc, &v| acc + v * v,
        |a, b| a + b,
    )?;
    Ok(ss.sqrt())
}

/// Index (section rank) and value of the largest-magnitude element (IAMAX).
/// Returns `None` for an empty section.
pub fn iamax(x: &DistArray<f64>, section: &RegularSection) -> Result<Option<(i64, f64)>> {
    let norm = section.normalized();
    if norm.count == 0 {
        return Ok(None);
    }
    // Gather (|v|, rank) maxima per node, then combine. Reuse the generic
    // reduction with an Option accumulator keyed by section rank.
    let lay = x.layout();
    let problem = bcag_core::params::Problem::new(x.p(), x.k(), norm.lo, norm.step)?;
    let machine = Machine::new(x.p());
    let partials = machine.run_collect(|m| {
        let pat = bcag_core::method::build(&problem, m as i64, Method::Lattice).ok()?;
        let local = x.local(m as i64);
        let mut best: Option<(i64, f64)> = None;
        for acc in pat.iter_to(norm.hi) {
            let v = local[lay.local_addr(acc.global) as usize];
            let rank = (acc.global - norm.lo) / norm.step;
            let better = match best {
                None => true,
                Some((_, bv)) => v.abs() > bv.abs(),
            };
            if better {
                best = Some((rank, v));
            }
        }
        best
    });
    Ok(partials
        .into_iter()
        .flatten()
        .fold(None, |best, (r, v)| match best {
            None => Some((r, v)),
            Some((_, bv)) if v.abs() > bv.abs() => Some((r, v)),
            keep => keep,
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(n: i64, p: i64, k: i64) -> (Vec<f64>, DistArray<f64>) {
        let data: Vec<f64> = (0..n).map(|i| ((i * 37 % 101) as f64) - 50.0).collect();
        let arr = DistArray::from_global(p, k, &data).unwrap();
        (data, arr)
    }

    #[test]
    fn scal_section_only() {
        let (data, mut x) = fixture(200, 4, 8);
        let sec = RegularSection::new(3, 195, 7).unwrap();
        scal(&mut x, &sec, -2.0).unwrap();
        let g = x.to_global();
        for i in 0..200i64 {
            let expect = if sec.contains(i) {
                -2.0 * data[i as usize]
            } else {
                data[i as usize]
            };
            assert_eq!(g[i as usize], expect, "i={i}");
        }
    }

    #[test]
    fn axpy_same_layout_fast_path() {
        let (xd, x) = fixture(300, 4, 8);
        let (yd, mut y) = fixture(300, 4, 8);
        let sec = RegularSection::new(0, 297, 3).unwrap();
        axpy(2.0, &x, &sec, &mut y, &sec).unwrap();
        let g = y.to_global();
        for i in 0..300i64 {
            let expect = if sec.contains(i) {
                yd[i as usize] + 2.0 * xd[i as usize]
            } else {
                yd[i as usize]
            };
            assert_eq!(g[i as usize], expect, "i={i}");
        }
    }

    #[test]
    fn axpy_mixed_layouts_and_sections() {
        let (xd, x) = fixture(300, 4, 5);
        let (yd, mut y) = fixture(300, 4, 8);
        let sec_x = RegularSection::new(2, 200, 2).unwrap();
        let sec_y = RegularSection::new(0, 297, 3).unwrap();
        axpy(-1.5, &x, &sec_x, &mut y, &sec_y).unwrap();
        let g = y.to_global();
        for t in 0..100i64 {
            let iy = (3 * t) as usize;
            let ix = (2 + 2 * t) as usize;
            assert_eq!(g[iy], yd[iy] - 1.5 * xd[ix], "t={t}");
        }
    }

    #[test]
    fn reductions() {
        let (data, x) = fixture(240, 8, 3);
        let sec = RegularSection::new(1, 235, 6).unwrap();
        let expect_asum: f64 = sec.iter().map(|i| data[i as usize].abs()).sum();
        assert_eq!(asum(&x, &sec).unwrap(), expect_asum);
        let expect_nrm2: f64 = sec
            .iter()
            .map(|i| data[i as usize].powi(2))
            .sum::<f64>()
            .sqrt();
        assert!((nrm2(&x, &sec).unwrap() - expect_nrm2).abs() < 1e-9);
    }

    #[test]
    fn iamax_finds_the_peak() {
        let n = 150i64;
        let mut data: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        data[77] = -1000.0; // peak inside the section below (77 = 2 + 5*15)
        let x = DistArray::from_global(3, 4, &data).unwrap();
        let sec = RegularSection::new(2, 147, 5).unwrap();
        let (rank, v) = iamax(&x, &sec).unwrap().unwrap();
        assert_eq!(v, -1000.0);
        assert_eq!(2 + 5 * rank, 77);
        // Empty section.
        let empty = RegularSection::new(10, 5, 1).unwrap();
        assert_eq!(iamax(&x, &empty).unwrap(), None);
    }
}
