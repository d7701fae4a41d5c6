//! Distributed arrays over a simulated `cyclic(k)` memory layout.
//!
//! A [`DistArray`] materializes the paper's Figure 1: `p` per-processor
//! local memories, each holding that processor's blocks contiguously.
//! Global element `i` lives on processor `owner(i)` at local address
//! `local_addr(i)` — exactly the layout the access-sequence algorithms
//! enumerate.

use bcag_core::error::{BcagError, Result};
use bcag_core::layout::Layout;
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;

/// A one-dimensional array of `n` elements distributed `cyclic(k)` over `p`
/// simulated processors.
#[derive(Debug, Clone, PartialEq)]
pub struct DistArray<T> {
    p: i64,
    k: i64,
    n: i64,
    layout: Layout,
    locals: Vec<Vec<T>>,
}

impl<T: Clone> DistArray<T> {
    /// Creates the array with every element set to `init`.
    pub fn new(p: i64, k: i64, n: i64, init: T) -> Result<Self> {
        // Validate (p, k) through the core constructor.
        let _ = Problem::new(p, k, 0, 1)?;
        if n < 0 {
            return Err(BcagError::NegativeLowerBound { l: n });
        }
        let layout = Layout::from_raw(p, k);
        let locals = (0..p)
            .map(|m| vec![init.clone(); layout.local_len(n, m) as usize])
            .collect();
        Ok(DistArray {
            p,
            k,
            n,
            layout,
            locals,
        })
    }

    /// Creates a zero-length array (no elements on any processor).
    pub fn empty(p: i64, k: i64) -> Result<Self> {
        let _ = Problem::new(p, k, 0, 1)?;
        Ok(DistArray {
            p,
            k,
            n: 0,
            layout: Layout::from_raw(p, k),
            locals: (0..p).map(|_| Vec::new()).collect(),
        })
    }

    /// Scatters a global vector into the distributed layout, course by
    /// course: each `pk`-element course of `data` hands processor `m` its
    /// `m`-th block of `k`.
    pub fn from_global(p: i64, k: i64, data: &[T]) -> Result<Self> {
        let mut arr = Self::empty(p, k)?;
        arr.n = data.len() as i64;
        for (m, local) in (0..).zip(&mut arr.locals) {
            local.reserve_exact(arr.layout.local_len(arr.n, m) as usize);
        }
        let k = k as usize;
        for course in data.chunks(k * p as usize) {
            for (local, block) in arr.locals.iter_mut().zip(course.chunks(k)) {
                local.extend_from_slice(block);
            }
        }
        Ok(arr)
    }

    /// Gathers the distributed contents back into a global vector, course
    /// by course: processor `m`'s next block continues the global order
    /// where processor `m − 1`'s left off.
    pub fn to_global(&self) -> Vec<T> {
        let pk = self.p * self.k;
        let mut out = Vec::with_capacity(self.n as usize);
        let mut blocks: Vec<_> = self
            .locals
            .iter()
            .map(|l| l.chunks(self.k as usize))
            .collect();
        for _course in 0..(self.n + pk - 1) / pk {
            for block in blocks.iter_mut().map_while(Iterator::next) {
                out.extend_from_slice(block);
            }
        }
        out
    }

    /// Sets every element to `f(g)` of its global index `g`, walking each
    /// processor's local memory in address order: block `c` of processor
    /// `m` holds global indices `c·pk + m·k + o`, `0 ≤ o < k`, so no
    /// element pays an owner or address computation.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64) -> T) {
        let (k, pk) = (self.k, self.p * self.k);
        for (m, local) in (0..).zip(&mut self.locals) {
            for (c, block) in (0..).zip(local.chunks_mut(k as usize)) {
                let base = c * pk + m * k;
                for (o, x) in (0..).zip(block) {
                    *x = f(base + o);
                }
            }
        }
    }

    /// The elements of `section` in section order, descending for a
    /// negative stride. Each element's (course, processor, block offset)
    /// is stepped from the previous one's, so the walk divides once per
    /// section, not once per element. Bounds are checked on the first and
    /// last element: an out-of-range section fails before yielding any.
    pub fn section_values(
        &self,
        section: &RegularSection,
    ) -> Result<impl ExactSizeIterator<Item = &T> + '_> {
        let count = section.count();
        let (first, s) = (section.l, section.s);
        if count > 0 {
            let last = (count - 1)
                .checked_mul(s)
                .and_then(|d| first.checked_add(d));
            if !last.is_some_and(|last| self.in_bounds(first) && self.in_bounds(last)) {
                return Err(BcagError::Precondition("global index out of bounds"));
            }
        }
        let pk = self.p * self.k;
        let r = s.rem_euclid(pk);
        Ok(SectionValues {
            locals: &self.locals,
            p: self.p,
            k: self.k,
            at: (
                self.layout.course(first),
                self.layout.owner(first),
                self.layout.block_offset(first),
            ),
            step: (s.div_euclid(pk), r / self.k, r % self.k),
            left: count as usize,
        })
    }

    /// Number of processors.
    pub fn p(&self) -> i64 {
        self.p
    }

    /// Block size.
    pub fn k(&self) -> i64 {
        self.k
    }

    /// Global extent.
    pub fn len(&self) -> i64 {
        self.n
    }

    /// True when the global extent is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The layout calculator for this array.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Immutable view of processor `m`'s local memory.
    pub fn local(&self, m: i64) -> &[T] {
        &self.locals[m as usize]
    }

    /// Mutable view of processor `m`'s local memory.
    pub fn local_mut(&mut self, m: i64) -> &mut Vec<T> {
        &mut self.locals[m as usize]
    }

    /// Splits into per-processor mutable views, for handing one view to each
    /// simulated node thread.
    pub fn locals_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.locals
    }

    /// Reads global element `i`.
    pub fn get(&self, i: i64) -> Result<&T> {
        self.check(i)?;
        let m = self.layout.owner(i);
        Ok(&self.locals[m as usize][self.layout.local_addr(i) as usize])
    }

    /// Writes global element `i`.
    pub fn set(&mut self, i: i64, value: T) -> Result<()> {
        self.check(i)?;
        let m = self.layout.owner(i);
        let a = self.layout.local_addr(i) as usize;
        self.locals[m as usize][a] = value;
        Ok(())
    }

    fn in_bounds(&self, i: i64) -> bool {
        (0..self.n).contains(&i)
    }

    fn check(&self, i: i64) -> Result<()> {
        if self.in_bounds(i) {
            Ok(())
        } else {
            Err(BcagError::Precondition("global index out of bounds"))
        }
    }
}

/// The walk behind [`DistArray::section_values`].
struct SectionValues<'a, T> {
    locals: &'a [Vec<T>],
    p: i64,
    k: i64,
    /// (course, processor, block offset) of the next element.
    at: (i64, i64, i64),
    /// The stride split the same way: `s = dc·pk + dm·k + do` with
    /// `0 ≤ dm < p` and `0 ≤ do < k` (`dc < 0` for a descending section).
    step: (i64, i64, i64),
    left: usize,
}

impl<'a, T> Iterator for SectionValues<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        self.left = self.left.checked_sub(1)?;
        let (c, m, o) = self.at;
        let value = &self.locals[m as usize][(c * self.k + o) as usize];
        if self.left > 0 {
            let (dc, dm, doff) = self.step;
            let (mut c, mut m, mut o) = (c + dc, m + dm, o + doff);
            if o >= self.k {
                o -= self.k;
                m += 1;
            }
            if m >= self.p {
                m -= self.p;
                c += 1;
            }
            self.at = (c, m, o);
        }
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for SectionValues<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_roundtrip() {
        let data: Vec<i64> = (0..100).map(|i| i * 10).collect();
        let arr = DistArray::from_global(4, 8, &data).unwrap();
        assert_eq!(arr.to_global(), data);
    }

    #[test]
    fn local_sizes_match_layout() {
        let arr = DistArray::new(4, 8, 100, 0.0f64).unwrap();
        let lay = Layout::from_raw(4, 8);
        for m in 0..4 {
            assert_eq!(arr.local(m).len() as i64, lay.local_len(100, m));
        }
        // Total elements preserved.
        let total: usize = (0..4).map(|m| arr.local(m).len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn element_placement_matches_figure1() {
        let mut arr = DistArray::new(4, 8, 320, 0i64).unwrap();
        arr.set(108, 42).unwrap();
        // Element 108: offset 4 in block 3 of processor 1 -> local 28.
        assert_eq!(arr.local(1)[28], 42);
        assert_eq!(*arr.get(108).unwrap(), 42);
    }

    #[test]
    fn bounds_checked() {
        let arr = DistArray::new(2, 4, 10, 0u8).unwrap();
        assert!(arr.get(10).is_err());
        assert!(arr.get(-1).is_err());
    }

    #[test]
    fn from_global_of_nothing_is_the_empty_array() {
        let arr = DistArray::<i64>::from_global(3, 2, &[]).unwrap();
        assert_eq!(arr, DistArray::empty(3, 2).unwrap());
        assert!(DistArray::<i64>::from_global(0, 2, &[]).is_err());
    }

    #[test]
    fn section_values_read_in_section_order() {
        let data: Vec<i64> = (0..500).map(|i| 7 * i).collect();
        let arr = DistArray::from_global(8, 4, &data).unwrap();
        for sec in [
            RegularSection::new(3, 495, 11).unwrap(),
            RegularSection::new(495, 3, -11).unwrap(),
        ] {
            let got: Vec<i64> = arr.section_values(&sec).unwrap().copied().collect();
            let expect: Vec<i64> = sec.iter().map(|i| data[i as usize]).collect();
            assert_eq!(got, expect, "{sec:?}");
        }
        let past_end = RegularSection::new(3, 500, 1).unwrap();
        assert!(arr.section_values(&past_end).is_err());
    }

    #[test]
    fn empty_array() {
        let arr = DistArray::new(3, 2, 0, 0u8).unwrap();
        assert!(arr.is_empty());
        assert!(arr.to_global().is_empty());
    }
}
