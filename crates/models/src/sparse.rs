//! Row-sparse gradient accumulation for item-embedding tables.
//!
//! A federated client's batch touches a handful of item rows (its
//! positives, sampled negatives, and — for LightGCN — its local-graph
//! items). Accumulating into a dense `|V| x N` buffer would dominate the
//! round cost, so gradients are keyed by row with slot reuse across a
//! local epoch. The server accumulates uploads in one; a client keeps its
//! local copies of the rows it trains in one too, each row filled from
//! its downloaded value on first touch ([`RowGradBuffer::row_mut`]).

use std::collections::HashMap;

/// Accumulates per-row gradients of fixed width.
#[derive(Clone, Debug)]
pub struct RowGradBuffer {
    dim: usize,
    slots: HashMap<u32, usize>,
    rows: Vec<u32>,
    data: Vec<f32>,
}

impl RowGradBuffer {
    /// Creates a buffer for rows of width `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            slots: HashMap::new(),
            rows: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Gradient width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct rows touched.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows are touched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `row`'s slot. On first touch it is appended zeroed and handed
    /// to `fill`, so a caller can start it from any value.
    pub fn row_mut(&mut self, row: u32, fill: impl FnOnce(&mut [f32])) -> &mut [f32] {
        let dim = self.dim;
        let slot = *self.slots.entry(row).or_insert_with(|| {
            self.rows.push(row);
            self.data.resize(self.rows.len() * dim, 0.0);
            fill(&mut self.data[(self.rows.len() - 1) * dim..]);
            self.rows.len() - 1
        });
        &mut self.data[slot * dim..][..dim]
    }

    /// `grad` may be narrower than `dim` (a prefix-width contribution from
    /// a smaller tier task); the tail stays untouched.
    ///
    /// # Panics
    /// Panics if `grad` is wider than `dim`.
    pub fn accumulate(&mut self, row: u32, scale: f32, grad: &[f32]) {
        assert!(grad.len() <= self.dim, "grad wider than buffer dim");
        for (acc, &g) in self.row_mut(row, |_| {}).iter_mut().zip(grad) {
            *acc += scale * g;
        }
    }

    /// Iterates `(row, gradient)` pairs in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.rows
            .iter()
            .enumerate()
            .map(move |(slot, &row)| (row, &self.data[slot * self.dim..(slot + 1) * self.dim]))
    }

    /// Gradient for one row, if touched.
    pub fn get(&self, row: u32) -> Option<&[f32]> {
        self.slots
            .get(&row)
            .map(|&slot| &self.data[slot * self.dim..(slot + 1) * self.dim])
    }

    /// Scales each row by `factor(row)` in place, in first-touch order,
    /// as if each scaled row were summed into a zeroed one: the `+ 0.0`
    /// turns a product that underflowed to `-0.0` into `+0.0`.
    pub fn scale_rows(&mut self, mut factor: impl FnMut(u32) -> f32) {
        if self.dim == 0 {
            return;
        }
        for (&row, grad) in self.rows.iter().zip(self.data.chunks_exact_mut(self.dim)) {
            let alpha = factor(row);
            grad.iter_mut().for_each(|x| *x = *x * alpha + 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_same_row() {
        let mut buf = RowGradBuffer::new(3);
        buf.accumulate(5, 1.0, &[1.0, 2.0, 3.0]);
        buf.accumulate(5, 2.0, &[1.0, 1.0, 1.0]);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(5).unwrap(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn distinct_rows_get_distinct_slots() {
        let mut buf = RowGradBuffer::new(2);
        buf.accumulate(1, 1.0, &[1.0, 0.0]);
        buf.accumulate(9, 1.0, &[0.0, 1.0]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(1).unwrap(), &[1.0, 0.0]);
        assert_eq!(buf.get(9).unwrap(), &[0.0, 1.0]);
        assert!(buf.get(2).is_none());
    }

    #[test]
    fn prefix_grad_leaves_tail_zero() {
        let mut buf = RowGradBuffer::new(4);
        buf.accumulate(0, 1.0, &[1.0, 2.0]);
        assert_eq!(buf.get(0).unwrap(), &[1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn iter_preserves_first_touch_order() {
        let mut buf = RowGradBuffer::new(1);
        for row in [7, 3, 11, 3, 7] {
            buf.accumulate(row, 1.0, &[1.0]);
        }
        let order: Vec<u32> = buf.iter().map(|(r, _)| r).collect();
        assert_eq!(order, vec![7, 3, 11]);
        assert_eq!(buf.get(7).unwrap(), &[2.0]);
    }

    #[test]
    fn scale_rows_scales_each_row_in_place() {
        let mut buf = RowGradBuffer::new(2);
        buf.accumulate(4, 1.0, &[1.0, -2.0]);
        buf.accumulate(9, 1.0, &[-f32::from_bits(1), 3.0]);
        buf.scale_rows(|row| if row == 4 { 2.0 } else { 0.5 });
        assert_eq!(buf.get(4).unwrap(), &[2.0, -4.0]);
        // The smallest subnormal halves to zero, and that zero is +0.0.
        assert_eq!(buf.get(9).unwrap()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(buf.get(9).unwrap()[1], 1.5);
        let order: Vec<u32> = buf.iter().map(|(r, _)| r).collect();
        assert_eq!(order, vec![4, 9]);
    }

    #[test]
    fn row_mut_fills_a_row_on_first_touch_only() {
        let mut buf = RowGradBuffer::new(2);
        buf.row_mut(6, |row| row.copy_from_slice(&[1.0, 2.0]))[1] += 0.5;
        buf.row_mut(6, |_| unreachable!("row 6 is held"))[0] -= 1.0;
        buf.accumulate(3, 1.0, &[4.0]);
        assert_eq!(buf.get(6).unwrap(), &[0.0, 2.5]);
        assert_eq!(buf.get(3).unwrap(), &[4.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "wider than buffer")]
    fn rejects_overwide_grad() {
        let mut buf = RowGradBuffer::new(2);
        buf.accumulate(0, 1.0, &[1.0, 2.0, 3.0]);
    }
}
