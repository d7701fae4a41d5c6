//! Regular sections `A(l : u : s)` in Fortran-90 triplet notation.
//!
//! The core algorithms work on the unbounded `(l, s)` form with `s > 0`
//! (the gap sequence does not depend on `u`, and the paper treats `s < 0`
//! "analogously" — Section 2). This module supplies the bounded, signed
//! user-facing form and the normalization onto the core form.

use crate::error::{BcagError, Result};

/// A bounded regular section `l : u : s` (both bounds inclusive, Fortran
/// style). `s` may be negative, in which case the section runs downward:
/// `l, l+s, l+2s, ...` while `>= u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegularSection {
    /// First element of the traversal.
    pub l: i64,
    /// Inclusive bound: last index not beyond which the traversal runs.
    pub u: i64,
    /// Stride; nonzero, any sign.
    pub s: i64,
}

/// A section normalized to ascending order: elements
/// `{ lo, lo + step, ..., hi }` with `step > 0` and
/// `hi = lo + (count-1) * step`. Produced by [`RegularSection::normalized`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NormalizedSection {
    /// Smallest element.
    pub lo: i64,
    /// Largest element (== `lo` when `count == 1`).
    pub hi: i64,
    /// Positive stride.
    pub step: i64,
    /// Number of elements; zero for an empty section.
    pub count: i64,
    /// True when the original section traversed downward (`s < 0`); the
    /// ascending enumeration must be reversed to recover traversal order.
    pub reversed: bool,
}

impl RegularSection {
    /// Creates a section, validating `s != 0` and `l, u >= 0`. A stride
    /// of `i64::MIN`, which has no positive twin, and a section of more
    /// than `i64::MAX` elements (the full range `0..=i64::MAX` at unit
    /// stride) are [`BcagError::Overflow`].
    pub fn new(l: i64, u: i64, s: i64) -> Result<Self> {
        if s == 0 {
            return Err(BcagError::ZeroStride);
        }
        if l < 0 {
            return Err(BcagError::NegativeLowerBound { l });
        }
        if u < 0 {
            return Err(BcagError::NegativeLowerBound { l: u });
        }
        if s == i64::MIN || (u - l) / s == i64::MAX {
            return Err(BcagError::Overflow);
        }
        Ok(RegularSection { l, u, s })
    }

    /// Number of elements in the section.
    ///
    /// ```
    /// use bcag_core::section::RegularSection;
    /// assert_eq!(RegularSection::new(0, 31, 9).unwrap().count(), 4);
    /// assert_eq!(RegularSection::new(31, 0, -9).unwrap().count(), 4);
    /// assert_eq!(RegularSection::new(5, 4, 3).unwrap().count(), 0);
    /// ```
    pub fn count(&self) -> i64 {
        if self.s > 0 {
            if self.u < self.l {
                0
            } else {
                (self.u - self.l) / self.s + 1
            }
        } else if self.u > self.l {
            0
        } else {
            (self.l - self.u) / (-self.s) + 1
        }
    }

    /// True when the section contains no elements.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The `t`-th element of the traversal (0-based), if it exists.
    pub fn nth(&self, t: i64) -> Option<i64> {
        if t < 0 || t >= self.count() {
            None
        } else {
            Some(self.l + t * self.s)
        }
    }

    /// True when global index `i` is an element of the section.
    pub fn contains(&self, i: i64) -> bool {
        if self.s > 0 {
            i >= self.l && i <= self.u && (i - self.l) % self.s == 0
        } else {
            i <= self.l && i >= self.u && (self.l - i) % (-self.s) == 0
        }
    }

    /// Iterates the section elements in traversal order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let count = self.count();
        (0..count).map(move |t| self.l + t * self.s)
    }

    /// Normalizes to an ascending section with positive stride; the element
    /// *set* is preserved and `reversed` records the original direction
    /// (paper Section 2: "the case when s is negative can be treated
    /// analogously").
    pub fn normalized(&self) -> NormalizedSection {
        let count = self.count();
        if count == 0 {
            return NormalizedSection {
                lo: self.l,
                hi: self.l,
                step: self.s.abs(),
                count: 0,
                reversed: self.s < 0,
            };
        }
        let last = self.l + (count - 1) * self.s;
        if self.s > 0 {
            NormalizedSection {
                lo: self.l,
                hi: last,
                step: self.s,
                count,
                reversed: false,
            }
        } else {
            NormalizedSection {
                lo: last,
                hi: self.l,
                step: -self.s,
                count,
                reversed: true,
            }
        }
    }
}

impl NormalizedSection {
    /// Iterates the elements in ascending order.
    pub fn iter_ascending(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.count).map(move |t| self.lo + t * self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(RegularSection::new(0, 10, 0).is_err());
        assert!(RegularSection::new(-1, 10, 1).is_err());
        assert!(RegularSection::new(0, -1, 1).is_err());
        assert!(RegularSection::new(0, 10, -3).is_ok());
    }

    #[test]
    fn counts_and_nth() {
        let sec = RegularSection::new(4, 301, 9).unwrap();
        assert_eq!(sec.count(), 34);
        assert_eq!(sec.nth(0), Some(4));
        assert_eq!(sec.nth(33), Some(301));
        assert_eq!(sec.nth(34), None);
        assert_eq!(sec.nth(-1), None);
    }

    #[test]
    fn contains_matches_iteration() {
        for &(l, u, s) in &[
            (0i64, 100i64, 7i64),
            (3, 90, 9),
            (90, 3, -9),
            (50, 50, 1),
            (10, 9, 3),
        ] {
            let sec = RegularSection::new(l, u, s).unwrap();
            let elems: Vec<i64> = sec.iter().collect();
            assert_eq!(elems.len() as i64, sec.count());
            for i in 0..=120 {
                assert_eq!(
                    sec.contains(i),
                    elems.contains(&i),
                    "l={l} u={u} s={s} i={i}"
                );
            }
        }
    }

    #[test]
    fn normalization_reverses_negative_stride() {
        let sec = RegularSection::new(100, 5, -7).unwrap();
        let n = sec.normalized();
        assert!(n.reversed);
        assert_eq!(n.step, 7);
        assert_eq!(n.count, sec.count());
        // Same element set, ascending.
        let mut forward: Vec<i64> = sec.iter().collect();
        forward.reverse();
        let asc: Vec<i64> = n.iter_ascending().collect();
        assert_eq!(forward, asc);
        assert_eq!(n.lo, *asc.first().unwrap());
        assert_eq!(n.hi, *asc.last().unwrap());
    }

    #[test]
    fn normalization_identity_for_positive() {
        let sec = RegularSection::new(4, 301, 9).unwrap();
        let n = sec.normalized();
        assert!(!n.reversed);
        assert_eq!((n.lo, n.hi, n.step, n.count), (4, 301, 9, 34));
    }

    #[test]
    fn empty_sections() {
        let sec = RegularSection::new(10, 9, 3).unwrap();
        assert!(sec.is_empty());
        assert_eq!(sec.normalized().count, 0);
        let sec = RegularSection::new(9, 10, -3).unwrap();
        assert!(sec.is_empty());
    }

    #[test]
    fn overflowing_sections_are_rejected() {
        // `count` would be `i64::MAX + 1`.
        assert_eq!(
            RegularSection::new(0, i64::MAX, 1),
            Err(BcagError::Overflow)
        );
        assert_eq!(
            RegularSection::new(i64::MAX, 0, -1),
            Err(BcagError::Overflow)
        );
        // One short of that, and the widest stride of each sign, still fit.
        assert_eq!(
            RegularSection::new(1, i64::MAX, 1).unwrap().count(),
            i64::MAX
        );
        assert_eq!(
            RegularSection::new(i64::MAX, 1, -1).unwrap().count(),
            i64::MAX
        );
        assert_eq!(
            RegularSection::new(0, i64::MAX, 2).unwrap().count(),
            i64::MAX / 2 + 1
        );
        assert_eq!(
            RegularSection::new(i64::MAX, 0, i64::MAX).unwrap().count(),
            0
        );
        assert_eq!(
            RegularSection::new(i64::MAX, 0, -i64::MAX).unwrap().count(),
            2
        );
    }

    #[test]
    fn min_stride_is_rejected() {
        // `-i64::MIN` does not exist, so `count` and `normalized` could
        // not negate it.
        for (l, u) in [(5, 0), (0, 5), (i64::MAX, 0), (3, 3)] {
            assert_eq!(
                RegularSection::new(l, u, i64::MIN),
                Err(BcagError::Overflow),
                "l={l} u={u}"
            );
        }
    }

    #[test]
    fn single_element_sections() {
        for s in [1i64, 5, -5] {
            let sec = RegularSection::new(7, 7, s).unwrap();
            assert_eq!(sec.count(), 1);
            assert_eq!(sec.iter().collect::<Vec<_>>(), vec![7]);
        }
    }
}
