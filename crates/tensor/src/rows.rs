//! Sparse rows of one width, sorted by id: an upload's item block and a
//! standalone client's private item rows.

use crate::wire::{DecodeError, Reader};

/// Rows of one width, back to back, in strictly ascending id order: the
/// row ids in one list, their values in one flat block (row `k` is
/// `values[k * dim..(k + 1) * dim]`). A block holds two allocations,
/// whatever its row count. `&block` iterates `(&row id, &row values)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowBlock {
    dim: usize,
    ids: Vec<u32>,
    values: Vec<f32>,
}

impl RowBlock {
    /// An empty block of `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// An empty block with room for `rows` rows of `dim` values.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        Self {
            dim,
            ids: Vec::with_capacity(rows),
            values: Vec::with_capacity(rows * dim),
        }
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends row `id` with the values `row` yields.
    ///
    /// # Panics
    /// Panics unless `id` is past the last row's id and `row` yields
    /// exactly `dim` values.
    pub fn push(&mut self, id: u32, row: impl IntoIterator<Item = f32>) {
        // `None` (no row yet) is below every `Some`.
        assert!(
            self.ids.last() < Some(&id),
            "row {id} is not past the last row"
        );
        let start = self.values.len();
        self.values.extend(row);
        let width = self.values.len() - start;
        assert_eq!(
            width, self.dim,
            "row {id} has width {width} != {}",
            self.dim
        );
        self.ids.push(id);
    }

    /// Appends row `id` with `dim` values read from `r` — how a decoder
    /// fills the block. An `id` not past the last row's is an invalid
    /// `rows`, so a decoded block never holds a row twice.
    pub fn read_row(&mut self, id: u32, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if self.ids.last() >= Some(&id) {
            return Err(DecodeError::Invalid { field: "rows" });
        }
        r.extend_f32s(self.dim, &mut self.values)?;
        self.ids.push(id);
        Ok(())
    }

    /// Row `id`'s values, if the block holds it (a binary search).
    pub fn get(&self, id: u32) -> Option<&[f32]> {
        let k = self.ids.binary_search(&id).ok()?;
        Some(&self.values[k * self.dim..][..self.dim])
    }

    /// Iterates `(&row id, &row values)`, ascending id.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            ids: self.ids.iter(),
            values: &self.values,
            dim: self.dim,
        }
    }
}

impl<'a> IntoIterator for &'a RowBlock {
    type Item = (&'a u32, &'a [f32]);
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Iterator over a [`RowBlock`]'s rows. It walks the ids and splits the
/// value block `dim` at a time, so zero-width rows come out as empty
/// slices.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    ids: std::slice::Iter<'a, u32>,
    values: &'a [f32],
    dim: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = (&'a u32, &'a [f32]);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.ids.next()?;
        let (row, rest) = self.values.split_at(self.dim);
        self.values = rest;
        Some((id, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "not past the last row")]
    fn push_refuses_a_repeated_id() {
        let mut rows = RowBlock::new(1);
        rows.push(4, [1.0]);
        rows.push(4, [2.0]);
    }

    #[test]
    fn get_finds_each_row_and_nothing_else() {
        let mut rows = RowBlock::new(2);
        rows.push(1, [1.0, 2.0]);
        rows.push(7, [3.0, 4.0]);
        assert_eq!(rows.get(1), Some(&[1.0, 2.0][..]));
        assert_eq!(rows.get(7), Some(&[3.0, 4.0][..]));
        assert_eq!(rows.get(4), None);
        assert_eq!(RowBlock::new(2).get(0), None);
    }

    #[test]
    fn read_row_appends_ascending_rows_and_refuses_the_rest() {
        let bytes: Vec<u8> = [1.5f32, -2.0, 0.25, 8.0]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        let mut r = Reader::new(&bytes);
        let mut rows = RowBlock::new(2);
        rows.read_row(3, &mut r).unwrap();
        assert_eq!(
            rows.read_row(3, &mut r),
            Err(DecodeError::Invalid { field: "rows" })
        );
        rows.read_row(9, &mut r).unwrap();
        assert_eq!(rows.read_row(10, &mut r), Err(DecodeError::Truncated));
        let read: Vec<_> = rows.iter().collect();
        assert_eq!(read, [(&3, &[1.5, -2.0][..]), (&9, &[0.25, 8.0][..])]);
    }
}
