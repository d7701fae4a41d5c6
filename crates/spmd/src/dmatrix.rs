//! Two-dimensional distributed matrices over an HPF mapping.
//!
//! [`DistMatrix`] pairs a [`bcag_hpf::ArrayMap`] (any combination of
//! block / cyclic / cyclic(k) per dimension over a processor grid) with
//! per-processor local storage, and executes data-parallel region updates
//! SPMD-style: section assignments (rectangular), and the paper's
//! future-work regions — diagonals and trapezoids — via the closed-form
//! enumeration in `bcag_hpf`.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_hpf::diagonal::diagonal_accesses;
use bcag_hpf::triangular::{trapezoid_accesses, Trapezoid};
use bcag_hpf::{ArrayMap, DimMap};

use crate::fuse::fits;
use crate::machine::Machine;

/// A dense matrix distributed over a processor grid.
#[derive(Debug, Clone)]
pub struct DistMatrix<T> {
    map: ArrayMap,
    locals: Vec<Vec<T>>,
}

impl<T: Clone + Send + Sync> DistMatrix<T> {
    /// Allocates with every element set to `init`. The map must be 2-D.
    pub fn new(map: ArrayMap, init: T) -> Result<Self> {
        if map.rank() != 2 {
            return Err(BcagError::Precondition("DistMatrix requires a rank-2 map"));
        }
        let locals = map
            .grid()
            .iter_coords()
            .map(|coords| {
                map.local_size(&coords)
                    .map(|n| vec![init.clone(); n as usize])
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DistMatrix { map, locals })
    }

    /// Builds from a generator over global indices.
    pub fn from_fn(map: ArrayMap, f: impl Fn(i64, i64) -> T) -> Result<Self>
    where
        T: Default,
    {
        let mut m = DistMatrix::new(map, T::default())?;
        m.fill_with(f)?;
        Ok(m)
    }

    /// Sets every element `(i, j)` to `f(i, j)`, calling `f` in row-major
    /// order. Each row and each column is placed once (owner coordinate and
    /// local index), not each element.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64) -> T) -> Result<()> {
        let (rows, cols) = self.extents();
        let rect = self.rect(0..rows, 0..cols)?;
        for (i, &(rank0, addr0, ext0)) in (0..).zip(&rect.rows) {
            for (j, &(rank1, addr1)) in (0..).zip(&rect.cols) {
                self.locals[rank0 + rank1][addr0 + addr1 * ext0] = f(i, j);
            }
        }
        Ok(())
    }

    /// The elements of the rectangular section in row-major section order
    /// (`section[1]` fastest). Each row and each column is placed once,
    /// not each element. A section with an empty dimension yields nothing
    /// and checks nothing; otherwise every index is bounds-checked before
    /// the first element is yielded.
    pub fn section_values(
        &self,
        section: &[RegularSection; 2],
    ) -> Result<impl Iterator<Item = &T> + '_> {
        let rect = if section.iter().any(|s| s.count() == 0) {
            Rect::default()
        } else {
            self.rect(section[0].iter(), section[1].iter())?
        };
        Ok(rect.values(&self.locals))
    }

    /// Places the rectangle `rows × cols`, one [`DimMap`] lookup per row
    /// and per column.
    fn rect(
        &self,
        rows: impl Iterator<Item = i64>,
        cols: impl Iterator<Item = i64>,
    ) -> Result<Rect> {
        let [d0, d1] = self.map.dims() else {
            unreachable!("DistMatrix::new admits rank-2 maps only");
        };
        let p0 = self.map.grid().extent(0) as usize;
        let place = |d: &DimMap, i: i64| -> Result<(usize, usize)> {
            if !(0..d.extent()).contains(&i) {
                return Err(BcagError::Precondition("index out of bounds"));
            }
            Ok((d.owner(i) as usize, d.local_index(i)? as usize))
        };
        let ext0 = (0..p0 as i64)
            .map(|c| d0.local_extent(c).map(|e| e as usize))
            .collect::<Result<Vec<_>>>()?;
        let rows = rows
            .map(|i| place(d0, i).map(|(c, a)| (c, a, ext0[c])))
            .collect::<Result<_>>()?;
        let cols = cols
            .map(|j| place(d1, j).map(|(c, a)| (c * p0, a)))
            .collect::<Result<_>>()?;
        Ok(Rect { rows, cols })
    }

    /// The mapping descriptor.
    pub fn map(&self) -> &ArrayMap {
        &self.map
    }

    /// Matrix extents `(rows, cols)`.
    pub fn extents(&self) -> (i64, i64) {
        let e = self.map.extents();
        (e[0], e[1])
    }

    /// Reads element `(i, j)`.
    pub fn get(&self, i: i64, j: i64) -> Result<&T> {
        let idx = [i, j];
        let rank = self.map.owner_rank(&idx)? as usize;
        let addr = self.map.local_linear(&idx)? as usize;
        Ok(&self.locals[rank][addr])
    }

    /// Writes element `(i, j)`.
    pub fn set(&mut self, i: i64, j: i64, v: T) -> Result<()> {
        let idx = [i, j];
        let rank = self.map.owner_rank(&idx)? as usize;
        let addr = self.map.local_linear(&idx)? as usize;
        self.locals[rank][addr] = v;
        Ok(())
    }

    /// Gathers into a dense row-major `Vec<Vec<T>>`.
    pub fn to_dense(&self) -> Result<Vec<Vec<T>>> {
        let (rows, cols) = self.extents();
        let mut values = self.rect(0..rows, 0..cols)?.values(&self.locals);
        Ok((0..rows)
            .map(|_| values.by_ref().take(cols as usize).cloned().collect())
            .collect())
    }

    /// Immutable view of one processor's local storage.
    pub fn local(&self, rank: i64) -> &[T] {
        &self.locals[rank as usize]
    }

    /// Mutable view of one processor's local storage.
    pub fn local_mut(&mut self, rank: i64) -> &mut [T] {
        &mut self.locals[rank as usize]
    }

    /// Fails unless each dimension's section lies inside that
    /// dimension's extent, so a statement never indexes past a local
    /// image nor silently drops the elements outside the matrix.
    pub(crate) fn check_section(&self, section: &[RegularSection; 2]) -> Result<()> {
        let extents = self.map.extents();
        if section.iter().zip(extents).all(|(sec, n)| fits(sec, n)) {
            Ok(())
        } else {
            Err(BcagError::Precondition(
                "a 2-D section reaches outside its matrix",
            ))
        }
    }

    /// Applies `f(i, j, &mut elem)` to every owned element of the
    /// rectangular section, SPMD across the grid. The section must lie
    /// inside the matrix.
    pub fn apply_section(
        &mut self,
        section: &[RegularSection; 2],
        f: impl Fn(i64, i64, &mut T) + Sync,
    ) -> Result<()> {
        self.check_section(section)?;
        let map = &self.map;
        let work: Vec<Vec<(Vec<i64>, i64)>> = map
            .grid()
            .iter_coords()
            .map(|coords| map.section_accesses(&coords, section, Method::Lattice))
            .collect::<Result<Vec<_>>>()?;
        let machine = Machine::new(map.grid().size());
        machine.run(&mut self.locals, |rank, local| {
            for (idx, addr) in &work[rank] {
                f(idx[0], idx[1], &mut local[*addr as usize]);
            }
        });
        Ok(())
    }

    /// Applies `f(i, j, &mut elem)` over a trapezoidal region.
    pub fn apply_trapezoid(
        &mut self,
        region: &Trapezoid,
        f: impl Fn(i64, i64, &mut T) + Sync,
    ) -> Result<()> {
        let map = &self.map;
        let work: Vec<Vec<((i64, i64), i64)>> = map
            .grid()
            .iter_coords()
            .map(|coords| trapezoid_accesses(map, &coords, region))
            .collect::<Result<Vec<_>>>()?;
        let machine = Machine::new(map.grid().size());
        machine.run(&mut self.locals, |rank, local| {
            for ((i, j), addr) in &work[rank] {
                f(*i, *j, &mut local[*addr as usize]);
            }
        });
        Ok(())
    }

    /// Applies `f(t, i, j, &mut elem)` along the diagonal
    /// `(starts.0 + t·strides.0, starts.1 + t·strides.1)`.
    pub fn apply_diagonal(
        &mut self,
        starts: (i64, i64),
        strides: (i64, i64),
        count: i64,
        f: impl Fn(i64, i64, i64, &mut T) + Sync,
    ) -> Result<()> {
        let map = &self.map;
        let work: Vec<_> = map
            .grid()
            .iter_coords()
            .map(|coords| {
                diagonal_accesses(
                    map,
                    &coords,
                    &[starts.0, starts.1],
                    &[strides.0, strides.1],
                    count,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let machine = Machine::new(map.grid().size());
        machine.run(&mut self.locals, |rank, local| {
            for acc in &work[rank] {
                f(
                    acc.t,
                    acc.index[0],
                    acc.index[1],
                    &mut local[acc.local as usize],
                );
            }
        });
        Ok(())
    }
}

/// Per-dimension placement tables of a rectangle of a [`DistMatrix`].
/// Local storage is column-major and the first grid coordinate varies
/// fastest in a rank, so element `(r, c)` lives on rank
/// `rows[r].0 + cols[c].0` at local address `rows[r].1 + cols[c].1 · rows[r].2`.
#[derive(Default)]
struct Rect {
    /// Per row: owner coordinate `c0`, local index, and the local extent
    /// of dimension 0 on `c0`.
    rows: Vec<(usize, usize, usize)>,
    /// Per column: `c1 · P0` for owner coordinate `c1`, and local index.
    cols: Vec<(usize, usize)>,
}

impl Rect {
    /// The rectangle's elements in `locals`, row-major.
    fn values<T>(self, locals: &[Vec<T>]) -> impl Iterator<Item = &T> {
        let Rect { rows, cols } = self;
        let (mut r, mut c) = (0, 0);
        std::iter::from_fn(move || {
            let &(rank0, addr0, ext0) = rows.get(r)?;
            let &(rank1, addr1) = cols.get(c)?;
            (r, c) = if c + 1 < cols.len() {
                (r, c + 1)
            } else {
                (r + 1, 0)
            };
            Some(&locals[rank0 + rank1][addr0 + addr1 * ext0])
        })
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors the matrix math
mod tests {
    use super::*;
    use bcag_hpf::{DimMap, Dist};

    fn map_2d(n: i64) -> ArrayMap {
        ArrayMap::new(vec![
            DimMap::simple(n, 2, Dist::CyclicK(3)).unwrap(),
            DimMap::simple(n, 2, Dist::CyclicK(4)).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn rectangular_section_update() {
        let n = 24;
        let mut m = DistMatrix::from_fn(map_2d(n), |i, j| (i * 100 + j) as f64).unwrap();
        let sec = [
            RegularSection::new(1, n - 1, 3).unwrap(),
            RegularSection::new(0, n - 1, 2).unwrap(),
        ];
        m.apply_section(&sec, |_, _, x| *x = -*x).unwrap();
        let dense = m.to_dense().unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = (i * 100 + j) as f64;
                let in_sec = i >= 1 && (i - 1) % 3 == 0 && j % 2 == 0;
                let got = dense[i as usize][j as usize];
                assert_eq!(got, if in_sec { -expect } else { expect }, "({i},{j})");
            }
        }
    }

    #[test]
    fn lower_triangle_update() {
        let n = 20;
        let mut m = DistMatrix::from_fn(map_2d(n), |_, _| 0i64).unwrap();
        m.apply_trapezoid(&Trapezoid::lower_triangle(n), |_, _, x| *x = 1)
            .unwrap();
        let dense = m.to_dense().unwrap();
        for i in 0..n as usize {
            for j in 0..n as usize {
                assert_eq!(dense[i][j], if j <= i { 1 } else { 0 }, "({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_update() {
        let n = 16;
        let mut m = DistMatrix::from_fn(map_2d(n), |_, _| 0i64).unwrap();
        m.apply_diagonal((0, 0), (1, 1), n, |t, i, j, x| {
            assert_eq!(i, t);
            assert_eq!(j, t);
            *x = 7;
        })
        .unwrap();
        let dense = m.to_dense().unwrap();
        for i in 0..n as usize {
            for j in 0..n as usize {
                assert_eq!(dense[i][j], if i == j { 7 } else { 0 });
            }
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = DistMatrix::new(map_2d(10), 0i64).unwrap();
        m.set(3, 7, 42).unwrap();
        assert_eq!(*m.get(3, 7).unwrap(), 42);
        assert!(m.get(10, 0).is_err());
    }

    #[test]
    fn rank_validation() {
        let map1d = ArrayMap::new(vec![DimMap::simple(10, 2, Dist::Cyclic).unwrap()]).unwrap();
        assert!(DistMatrix::new(map1d, 0u8).is_err());
    }
}
