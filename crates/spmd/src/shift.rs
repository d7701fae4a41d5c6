//! HPF shift intrinsics: `CSHIFT` and `EOSHIFT`.
//!
//! Nearest-neighbor communication is the bread and butter of data-parallel
//! stencils; HPF exposes it as whole-array circular (`CSHIFT`) and
//! end-off (`EOSHIFT`) shifts. Both reduce to one or two regular-section
//! assignments, so the communication sets come straight from the
//! access-sequence machinery ([`crate::comm`]).

use bcag_core::error::{BcagError, Result};
use bcag_core::section::RegularSection;

use crate::comm::PackValue;
use crate::darray::DistArray;
use crate::statement::assign_array;

/// Circular shift: returns `A` with `A(i) = B((i + shift) mod n)`.
/// Positive `shift` moves elements toward lower indices (HPF convention).
pub fn cshift<T: PackValue>(b: &DistArray<T>, shift: i64) -> Result<DistArray<T>> {
    let n = b.len();
    if n == 0 {
        return Ok(b.clone());
    }
    let sh = shift.rem_euclid(n);
    let mut a = b.clone();
    if sh == 0 {
        return Ok(a);
    }
    // A(0 : n-1-sh) = B(sh : n-1)
    let dst_main = RegularSection::new(0, n - 1 - sh, 1)?;
    let src_main = RegularSection::new(sh, n - 1, 1)?;
    assign_array(&mut a, &dst_main, b, &src_main)?;
    // A(n-sh : n-1) = B(0 : sh-1)
    let dst_wrap = RegularSection::new(n - sh, n - 1, 1)?;
    let src_wrap = RegularSection::new(0, sh - 1, 1)?;
    assign_array(&mut a, &dst_wrap, b, &src_wrap)?;
    Ok(a)
}

/// End-off shift: like [`cshift`] but vacated positions take `boundary`.
pub fn eoshift<T: PackValue>(b: &DistArray<T>, shift: i64, boundary: T) -> Result<DistArray<T>> {
    let n = b.len();
    if n == 0 {
        return Ok(b.clone());
    }
    if shift.unsigned_abs() >= n.unsigned_abs() {
        let mut a = b.clone();
        for i in 0..n {
            a.set(i, boundary.clone())?;
        }
        return Ok(a);
    }
    let mut a = b.clone();
    if shift == 0 {
        return Ok(a);
    }
    if shift > 0 {
        let dst = RegularSection::new(0, n - 1 - shift, 1)?;
        let src = RegularSection::new(shift, n - 1, 1)?;
        assign_array(&mut a, &dst, b, &src)?;
        for i in n - shift..n {
            a.set(i, boundary.clone())?;
        }
    } else {
        let sh = -shift;
        let dst = RegularSection::new(sh, n - 1, 1)?;
        let src = RegularSection::new(0, n - 1 - sh, 1)?;
        assign_array(&mut a, &dst, b, &src)?;
        for i in 0..sh {
            a.set(i, boundary.clone())?;
        }
    }
    Ok(a)
}

/// Validates a shift request against an array (exposed for the runtime's
/// statement checking).
pub fn check_shift(n: i64, _shift: i64) -> Result<()> {
    if n < 0 {
        return Err(BcagError::Precondition("array extent must be nonnegative"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_cshift(v: &[i64], shift: i64) -> Vec<i64> {
        let n = v.len() as i64;
        (0..n)
            .map(|i| v[((i + shift.rem_euclid(n)).rem_euclid(n)) as usize])
            .collect()
    }

    #[test]
    fn cshift_matches_sequential() {
        let data: Vec<i64> = (0..100).map(|i| i * i).collect();
        let b = DistArray::from_global(4, 8, &data).unwrap();
        for shift in [
            i64::MIN,
            -150,
            -99,
            -7,
            -1,
            0,
            1,
            5,
            8,
            32,
            99,
            100,
            137,
            i64::MAX,
        ] {
            let a = cshift(&b, shift).unwrap();
            assert_eq!(a.to_global(), seq_cshift(&data, shift), "shift={shift}");
        }
    }

    #[test]
    fn eoshift_matches_sequential() {
        let data: Vec<i64> = (0..60).collect();
        let b = DistArray::from_global(4, 3, &data).unwrap();
        for shift in [i64::MIN, -70, -59, -5, -1, 0, 1, 4, 59, 60, 70, i64::MAX] {
            let a = eoshift(&b, shift, -1).unwrap();
            let n = data.len() as i64;
            let expect: Vec<i64> = (0..n)
                .map(|i| {
                    let src = i.saturating_add(shift);
                    if (0..n).contains(&src) {
                        data[src as usize]
                    } else {
                        -1
                    }
                })
                .collect();
            assert_eq!(a.to_global(), expect, "shift={shift}");
        }
    }

    #[test]
    fn empty_arrays() {
        let b: DistArray<i64> = DistArray::empty(2, 4).unwrap();
        assert!(cshift(&b, 3).unwrap().is_empty());
        assert!(eoshift(&b, 3, 0).unwrap().is_empty());
    }
}
