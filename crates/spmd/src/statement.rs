//! Whole array statements: `A(secₐ) = f(B(sec_b), C(sec_c), ...)`.
//!
//! The paper's machinery generates the *local address streams*; a compiler
//! wraps them into complete statement execution: gather each right-hand
//! side operand's section to the processors that own the corresponding
//! left-hand side elements (communication sets), then run an owner-computes
//! elementwise loop over the LHS access sequence. This module is that
//! wrapper, plus two-sided copies and block-size redistribution as the
//! special case `A(0:n-1) = B(0:n-1)`.
//!
//! Every statement here runs its cached fused program ([`crate::fuse`]):
//! one pool dispatch per statement on the resident worker pool
//! ([`crate::pool`]), message buffers from the per-node arenas, and —
//! inside a `bcag spmd` node process — the replicated run over the
//! session pipes. After the first iteration of a loop a statement spawns
//! no threads, builds nothing and allocates no fresh message buffers.
//! Both shared services are built for many concurrent drivers: the cache
//! is sharded with lock-free hit bookkeeping and the pool registry is a
//! sharded read-mostly map, so N interpreted scripts running this path
//! simultaneously contend only when they miss on the same key at the
//! same time (and then the single-flight arbitration builds once and
//! shares the result).

use bcag_core::error::Result;
use bcag_core::section::RegularSection;

use crate::comm::PackValue;
use crate::darray::DistArray;
use crate::fuse;
use crate::transport;

/// Executes `A(sec_a) = f(operand values...)` where each operand is a
/// `(array, section)` pair conforming to `sec_a` (equal element counts).
/// Operands may live on any layout with the same processor count; their
/// values are gathered to the LHS owners first. The LHS section must be
/// ascending.
///
/// `f` receives the operands' values for one section rank, in operand
/// order. Operands are read as of before the statement, so `A` may
/// appear on its own right-hand side.
pub fn assign_expr<T, F>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    operands: &[(&DistArray<T>, RegularSection)],
    f: F,
) -> Result<()>
where
    T: PackValue,
    F: Fn(&[T]) -> T + Sync,
{
    fuse::assign_fused_on(a, sec_a, operands, f, transport::active_transport())
}

/// Executes the copy `A(sec_a) = B(sec_b)` for conforming sections on
/// any two layouts of one machine: the copy run of the statement's
/// fused program, whose apply steps read `B` in place or from the kept
/// payloads and write `A` once.
pub fn assign_array<T: PackValue>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    b: &DistArray<T>,
    sec_b: &RegularSection,
) -> Result<()> {
    fuse::assign_copy_on(a, sec_a, b, sec_b, transport::active_transport())
}

/// Redistributes an array to a new block size: returns a `cyclic(new_k)`
/// copy with identical contents (`A' = A` elementwise). The workhorse of
/// `REDISTRIBUTE` directives and of interfacing libraries that demand a
/// specific blocking.
pub fn redistribute<T: PackValue>(arr: &DistArray<T>, new_k: i64) -> Result<DistArray<T>> {
    let n = arr.len();
    if n == 0 {
        return DistArray::empty(arr.p(), new_k);
    }
    let proto = arr.get(0)?.clone();
    let mut out = DistArray::new(arr.p(), new_k, n, proto)?;
    let sec = RegularSection::new(0, n - 1, 1)?;
    assign_array(&mut out, &sec, arr, &sec)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use bcag_core::error::BcagError;

    use super::*;
    use crate::transport::TransportKind;

    /// The sequential global-index reference of `A(sec_a) = B(sec_b)`.
    fn oracle<T: Clone>(
        a: &[T],
        sec_a: &RegularSection,
        b: &[T],
        sec_b: &RegularSection,
    ) -> Vec<T> {
        let mut out = a.to_vec();
        for (ia, ib) in sec_a.iter().zip(sec_b.iter()) {
            out[ia as usize] = b[ib as usize].clone();
        }
        out
    }

    #[test]
    fn triad_with_mixed_layouts() {
        // A(0:359:3) = B(2:240:2) * alpha + C(10:129:1), layouts all
        // different.
        let n = 400i64;
        let alpha = 3.0f64;
        let bg: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cg: Vec<f64> = (0..n).map(|i| (i * i % 97) as f64).collect();
        let b = DistArray::from_global(4, 5, &bg).unwrap();
        let c = DistArray::from_global(4, 16, &cg).unwrap();
        let mut a = DistArray::new(4, 8, n, 0.0f64).unwrap();

        let sec_a = RegularSection::new(0, 357, 3).unwrap();
        let sec_b = RegularSection::new(2, 240, 2).unwrap();
        let sec_c = RegularSection::new(10, 129, 1).unwrap();
        assert_eq!(sec_a.count(), 120);
        assert_eq!(sec_b.count(), 120);
        assert_eq!(sec_c.count(), 120);

        assign_expr(&mut a, &sec_a, &[(&b, sec_b), (&c, sec_c)], |args| {
            args[0] * alpha + args[1]
        })
        .unwrap();

        let got = a.to_global();
        for t in 0..120i64 {
            let ia = (3 * t) as usize;
            let ib = (2 + 2 * t) as usize;
            let ic = (10 + t) as usize;
            assert_eq!(got[ia], bg[ib] * alpha + cg[ic], "t={t}");
        }
        // Untouched elements remain zero.
        assert_eq!(got[1], 0.0);
        assert_eq!(got[2], 0.0);
    }

    #[test]
    fn zero_operand_statement_is_fill() {
        let mut a = DistArray::new(2, 4, 50, 0i64).unwrap();
        let sec = RegularSection::new(1, 49, 4).unwrap();
        assign_expr(&mut a, &sec, &[], |_| 9).unwrap();
        let g = a.to_global();
        for i in 0..50i64 {
            assert_eq!(g[i as usize], if sec.contains(i) { 9 } else { 0 });
        }
    }

    #[test]
    fn self_assignment_shift() {
        // A(0:89:1) = A(10:99:1): a shifted self-copy read from a clone
        // of A (the RHS is read before any write).
        let n = 100i64;
        let data: Vec<i64> = (0..n).collect();
        let mut a = DistArray::from_global(4, 4, &data).unwrap();
        let src = a.clone();
        let sec_dst = RegularSection::new(0, 89, 1).unwrap();
        let sec_src = RegularSection::new(10, 99, 1).unwrap();
        assign_expr(&mut a, &sec_dst, &[(&src, sec_src)], |args| args[0]).unwrap();
        assert_eq!(a.to_global(), oracle(&data, &sec_dst, &data, &sec_src));
    }

    #[test]
    fn malformed_statements_are_rejected() {
        let b = DistArray::new(2, 4, 50, 0.0f64).unwrap();
        let mut a = DistArray::new(2, 4, 50, 0.0f64).unwrap();
        let sec_a = RegularSection::new(0, 9, 1).unwrap();
        let sec_b = RegularSection::new(0, 10, 1).unwrap();
        assert!(assign_expr(&mut a, &sec_a, &[(&b, sec_b)], |v| v[0]).is_err());
        assert!(assign_array(&mut a, &sec_a, &b, &sec_b).is_err());
        let desc = RegularSection::new(9, 0, -1).unwrap();
        assert!(assign_array(&mut a, &desc, &b, &desc).is_err());
        let other = DistArray::new(3, 4, 50, 0.0f64).unwrap();
        assert!(assign_array(&mut a, &sec_a, &other, &sec_a).is_err());
    }

    /// Hostile sections on 400-element arrays: an LHS past the end, and
    /// operands past the end, ascending or descending.
    fn out_of_range_cases() -> [(RegularSection, RegularSection); 4] {
        let sec = |l, u, s| RegularSection::new(l, u, s).unwrap();
        [
            (sec(0, 1000, 3), sec(0, 1000, 3)),
            (sec(0, 10, 1), sec(390, 400, 1)),
            (sec(0, 10, 1), sec(400, 390, -1)),
            (sec(395, 405, 1), sec(0, 10, 1)),
        ]
    }

    #[test]
    fn assign_expr_rejects_out_of_range_sections() {
        let bg: Vec<f64> = (0..400).map(f64::from).collect();
        let b = DistArray::from_global(4, 8, &bg).unwrap();
        let mut a = DistArray::new(4, 5, 400, -1.0f64).unwrap();
        for (sec_a, sec_b) in out_of_range_cases() {
            let err = assign_expr(&mut a, &sec_a, &[(&b, sec_b)], |v| v[0] + 1.0).unwrap_err();
            assert!(
                matches!(err, BcagError::Precondition(_)),
                "{sec_a:?} {sec_b:?}: {err}"
            );
        }
        let fill = RegularSection::new(0, 400, 8).unwrap();
        let err = assign_expr(&mut a, &fill, &[], |_| 1.0).unwrap_err();
        assert!(matches!(err, BcagError::Precondition(_)), "{err}");
        assert!(a.to_global().iter().all(|&x| x == -1.0), "nothing written");
    }

    #[test]
    fn assign_array_rejects_out_of_range_sections() {
        let bg: Vec<i64> = (0..400).collect();
        let b = DistArray::from_global(4, 8, &bg).unwrap();
        let mut a = DistArray::new(4, 5, 400, -1i64).unwrap();
        for (sec_a, sec_b) in out_of_range_cases() {
            let err = assign_array(&mut a, &sec_a, &b, &sec_b).unwrap_err();
            assert!(
                matches!(err, BcagError::Precondition(_)),
                "{sec_a:?} {sec_b:?}: {err}"
            );
        }
        assert!(a.to_global().iter().all(|&x| x == -1), "nothing written");
        // The last element is inside: the check is not off by one.
        let last = RegularSection::new(399, 399, 1).unwrap();
        assign_array(&mut a, &last, &b, &last).unwrap();
        assert_eq!(*a.get(399).unwrap(), 399);
    }

    #[test]
    fn copies_match_the_oracle_on_every_transport() {
        // A strided same-layout copy (communication-free) and a genuine
        // cyclic(8) = cyclic(3) redistribution.
        let n = 300i64;
        let bg: Vec<i64> = (0..n).map(|i| i * i - 7).collect();
        for (k_a, k_b, (la, ua, sa), (lb, ub, sb)) in [
            (8i64, 8i64, (0, 290, 10), (5, 295, 10)),
            (8, 3, (2, 230, 4), (1, 229, 4)),
        ] {
            let sec_a = RegularSection::new(la, ua, sa).unwrap();
            let sec_b = RegularSection::new(lb, ub, sb).unwrap();
            let b = DistArray::from_global(4, k_b, &bg).unwrap();
            let want = oracle(&vec![-1; n as usize], &sec_a, &bg, &sec_b);
            for kind in TransportKind::ALL {
                let mut a = DistArray::new(4, k_a, n, -1i64).unwrap();
                fuse::assign_copy_on(&mut a, &sec_a, &b, &sec_b, kind).unwrap();
                assert_eq!(a.to_global(), want, "{}", kind.name());
            }
        }
    }

    #[test]
    fn copies_move_array_and_clone_payloads() {
        // [f64; 4] exercises the composite wire format over the
        // serializing fabric; Strings have no wire format and travel as
        // boxed envelopes on every fabric.
        let n = 96i64;
        let sec = RegularSection::new(0, n - 1, 1).unwrap();
        let quads: Vec<[f64; 4]> = (0..n)
            .map(|i| [i as f64, -i as f64, 0.5 * i as f64, 1.0])
            .collect();
        let words: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let qb = DistArray::from_global(4, 5, &quads).unwrap();
        let wb = DistArray::from_global(4, 5, &words).unwrap();
        for kind in TransportKind::ALL {
            let mut qa = DistArray::new(4, 3, n, [0.0f64; 4]).unwrap();
            fuse::assign_copy_on(&mut qa, &sec, &qb, &sec, kind).unwrap();
            assert_eq!(qa.to_global(), quads, "{}", kind.name());
            let mut wa = DistArray::new(4, 7, n, String::new()).unwrap();
            fuse::assign_copy_on(&mut wa, &sec, &wb, &sec, kind).unwrap();
            assert_eq!(wa.to_global(), words, "{}", kind.name());
        }
    }

    #[test]
    fn empty_sections_are_noop() {
        let sec = RegularSection::new(10, 5, 1).unwrap();
        assert_eq!(sec.count(), 0);
        let b = DistArray::new(2, 4, 20, 3i64).unwrap();
        let mut a = DistArray::new(2, 4, 20, 7i64).unwrap();
        assign_array(&mut a, &sec, &b, &sec).unwrap();
        assign_expr(&mut a, &sec, &[(&b, sec)], |v| v[0] + 1).unwrap();
        assert!(a.to_global().iter().all(|&x| x == 7));
    }

    #[test]
    fn redistribute_preserves_contents() {
        // Redistribution copies the whole array, so its sections end on
        // the last element — the edge of the statements' range check —
        // for every length down to one.
        for n in [240i64, 7, 1] {
            let data: Vec<i64> = (0..n).map(|i| 7 * i + 1).collect();
            let a = DistArray::from_global(4, 3, &data).unwrap();
            for new_k in [1i64, 2, 5, 8, 60, 240] {
                let b = redistribute(&a, new_k).unwrap();
                assert_eq!(b.k(), new_k);
                assert_eq!(b.to_global(), data, "n={n} new_k={new_k}");
            }
        }
    }
}
