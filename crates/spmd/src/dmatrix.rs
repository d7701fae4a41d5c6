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
use bcag_hpf::ArrayMap;

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
        let extents = m.map.extents();
        for i in 0..extents[0] {
            for j in 0..extents[1] {
                let v = f(i, j);
                m.set(i, j, v)?;
            }
        }
        Ok(m)
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
        (0..rows)
            .map(|i| (0..cols).map(|j| self.get(i, j).cloned()).collect())
            .collect()
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
