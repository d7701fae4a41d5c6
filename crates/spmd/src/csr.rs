//! Flat CSR (compressed sparse row) storage for per-row item lists.
//!
//! The communication layer needs "a list of things per (src, dst) pair"
//! and "a list of ranks per grid coordinate" — shapes that the obvious
//! `Vec<Vec<_>>` encodings pay for with O(rows) allocator calls and
//! pointer-chasing reads. [`Csr`] stores every item in one flat vector
//! plus a `rows + 1` offset table, so building touches the allocator
//! O(1) amortized times and a per-row slice is two index reads.

/// A read-only jagged array: `rows` variable-length rows stored
/// back-to-back in one flat buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    items: Vec<T>,
    /// `offsets.len() == rows + 1`; row `r` is `items[offsets[r]..offsets[r+1]]`.
    offsets: Vec<usize>,
}

impl<T> Csr<T> {
    /// A CSR with `rows` empty rows.
    pub fn empty(rows: usize) -> Csr<T> {
        Csr {
            items: Vec::new(),
            offsets: vec![0; rows + 1],
        }
    }

    /// Starts an incremental row-by-row build.
    pub fn builder() -> CsrBuilder<T> {
        CsrBuilder {
            items: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The items of row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }

    /// All items, row-major.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Total number of items across all rows.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no row holds any item.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Heap bytes held: the item buffer and the offset table, at
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }
}

/// Incremental builder for [`Csr`]: push items, then seal the current row.
#[derive(Debug)]
pub struct CsrBuilder<T> {
    items: Vec<T>,
    offsets: Vec<usize>,
}

impl<T> CsrBuilder<T> {
    /// Reserves space for `additional` more items.
    pub fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }

    /// Appends one item to the row currently being built.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Seals the current row; subsequent pushes start the next row.
    pub fn finish_row(&mut self) {
        self.offsets.push(self.items.len());
    }

    /// Number of rows sealed so far.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Finalizes the build. Panics unless exactly `expected_rows` rows were
    /// sealed — a guard against a caller forgetting a `finish_row`.
    pub fn finish(self, expected_rows: usize) -> Csr<T> {
        assert_eq!(
            self.offsets.len() - 1,
            expected_rows,
            "CSR build sealed a different number of rows than expected"
        );
        Csr {
            items: self.items,
            offsets: self.offsets,
        }
    }
}

impl<T: Copy> CsrBuilder<T> {
    /// Appends a slice of items to the row currently being built.
    pub fn extend_row(&mut self, items: &[T]) {
        self.items.extend_from_slice(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_jagged_rows() {
        let mut b = Csr::builder();
        b.push(1);
        b.push(2);
        b.finish_row();
        b.finish_row(); // empty row
        b.extend_row(&[3, 4, 5]);
        b.finish_row();
        let csr = b.finish(3);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[i32]);
        assert_eq!(csr.row(2), &[3, 4, 5]);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.items(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_has_all_empty_rows() {
        let csr: Csr<i64> = Csr::empty(4);
        assert_eq!(csr.rows(), 4);
        assert!(csr.is_empty());
        for r in 0..4 {
            assert!(csr.row(r).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "different number of rows")]
    fn finish_checks_row_count() {
        let mut b: CsrBuilder<i32> = Csr::builder();
        b.finish_row();
        let _ = b.finish(2);
    }
}
