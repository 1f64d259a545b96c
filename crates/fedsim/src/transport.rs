//! Update payloads and their wire format.
//!
//! A client upload consists of (paper Algorithm 1, lines 18/21/24):
//!
//! * the item-embedding update `∇V_i` — sparse by construction, since a
//!   client's local training only touches the rows of items it sampled;
//! * one flat predictor delta `∇Θ` per tier the client trains (a small
//!   client uploads `Θs` only; a large client uploads `Θs`, `Θm`, `Θl`).
//!
//! The binary encoding exists so communication costs are *measured*, not
//! estimated: `encoded_len` is exercised against real buffers in tests,
//! and the Table III harness reports both the paper's dense accounting
//! and the sparse bytes this format actually moves.

use hf_tensor::wire::{Reader, Writer};

/// Sparse row-keyed update to an embedding table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseRowUpdate {
    /// Row width (the uploading tier's embedding dimension).
    pub dim: usize,
    /// `(row index, row delta)` pairs; each delta is `dim` long.
    pub rows: Vec<(u32, Vec<f32>)>,
}

impl SparseRowUpdate {
    /// Creates an update, validating row widths.
    ///
    /// # Panics
    /// Panics if any row delta is not `dim` long.
    pub fn new(dim: usize, rows: Vec<(u32, Vec<f32>)>) -> Self {
        for (r, d) in &rows {
            assert_eq!(d.len(), dim, "row {r} delta has width {} != {dim}", d.len());
        }
        Self { dim, rows }
    }

    /// Number of touched rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows are touched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Scales all deltas in place.
    pub fn scale(&mut self, alpha: f32) {
        for (_, d) in &mut self.rows {
            d.iter_mut().for_each(|x| *x *= alpha);
        }
    }
}

/// One client's complete upload for a round.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClientUpdate {
    /// Sparse item-embedding delta.
    pub items: SparseRowUpdate,
    /// `(tier index, flat predictor delta)` pairs, ascending tier.
    pub thetas: Vec<(u8, Vec<f32>)>,
}

impl ClientUpdate {
    /// Exact size of [`ClientUpdate::encode`]'s output in bytes.
    pub fn encoded_len(&self) -> usize {
        // Header: dim (u32) + row count (u32).
        let mut n = 8;
        // Rows: index (u32) + dim floats.
        n += self.items.rows.len() * (4 + 4 * self.items.dim);
        // Theta section: count (u32), then per entry tier (u8) + len (u32) + floats.
        n += 4;
        for (_, flat) in &self.thetas {
            n += 1 + 4 + 4 * flat.len();
        }
        n
    }

    /// Serialises to the binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Writer::with_capacity(self.encoded_len());
        buf.put_u32_le(self.items.dim as u32);
        buf.put_u32_le(self.items.rows.len() as u32);
        for (row, delta) in &self.items.rows {
            buf.put_u32_le(*row);
            for &x in delta {
                buf.put_f32_le(x);
            }
        }
        buf.put_u32_le(self.thetas.len() as u32);
        for (tier, flat) in &self.thetas {
            buf.put_u8(*tier);
            buf.put_u32_le(flat.len() as u32);
            for &x in flat {
                buf.put_f32_le(x);
            }
        }
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf.into_vec()
    }

    /// Parses the binary wire format.
    ///
    /// Returns `None` on truncated, malformed or over-long input (a real
    /// server must not panic on a hostile payload; trailing bytes are
    /// rejected so that `decode(b)?.encode() == b`, as in every other
    /// codec of the workspace).
    pub fn decode(buf: impl AsRef<[u8]>) -> Option<Self> {
        let mut buf = Reader::new(buf.as_ref());
        let dim = buf.get_u32_le()? as usize;
        let n_rows = buf.get_u32_le()? as usize;
        let row_width = dim.checked_mul(4)?.checked_add(4)?;
        let mut rows = Vec::with_capacity(buf.fits(n_rows, row_width)?);
        for _ in 0..n_rows {
            rows.push((buf.get_u32_le()?, buf.get_f32_vec(dim)?));
        }
        let n_thetas = buf.get_u32_le()? as usize;
        if n_thetas > 16 {
            return None; // sanity bound: no protocol has that many tiers
        }
        let mut thetas = Vec::with_capacity(n_thetas);
        for _ in 0..n_thetas {
            let tier = buf.get_u8()?;
            let len = buf.get_u32_le()? as usize;
            thetas.push((tier, buf.get_f32_vec(len)?));
        }
        if buf.remaining() != 0 {
            return None;
        }
        Some(Self {
            items: SparseRowUpdate { dim, rows },
            thetas,
        })
    }

    /// Upload size under the paper's *dense* accounting (Table III):
    /// the full `|V| x dim` table plus every predictor, in parameters.
    pub fn dense_param_count(&self, num_items: usize) -> usize {
        num_items * self.items.dim + self.thetas.iter().map(|(_, f)| f.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClientUpdate {
        ClientUpdate {
            items: SparseRowUpdate::new(
                3,
                vec![(5, vec![1.0, -2.0, 0.5]), (11, vec![0.0, 0.25, -0.75])],
            ),
            thetas: vec![(0, vec![0.1, 0.2]), (2, vec![-0.3])],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let u = sample();
        let wire = u.encode();
        let back = ClientUpdate::decode(wire).unwrap();
        assert_eq!(u, back);
    }

    #[test]
    fn encoded_len_is_exact() {
        let u = sample();
        assert_eq!(u.encode().len(), u.encoded_len());
        let empty = ClientUpdate::default();
        assert_eq!(empty.encode().len(), empty.encoded_len());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let wire = sample().encode();
        for cut in [0, 3, 7, 9, wire.len() - 1] {
            assert!(
                ClientUpdate::decode(&wire[..cut]).is_none(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut wire = sample().encode();
        wire.extend([0x55, 0xAA, 0x01]);
        assert!(ClientUpdate::decode(wire).is_none());
    }

    #[test]
    fn hostile_row_count_is_rejected() {
        // Claim 2^32-1 rows with a tiny buffer: must fail cleanly.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ClientUpdate::decode(buf).is_none());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn sparse_update_validates_row_width() {
        let _ = SparseRowUpdate::new(3, vec![(0, vec![1.0])]);
    }

    #[test]
    fn dense_param_count_matches_table_iii_formula() {
        let u = sample();
        // size(V) + size(Θ): 100 items * dim 3 + (2 + 1) predictor params.
        assert_eq!(u.dense_param_count(100), 303);
    }

    #[test]
    fn scale_rescales_deltas() {
        let mut u = sample().items;
        u.scale(2.0);
        assert_eq!(u.rows[0].1, vec![2.0, -4.0, 1.0]);
    }
}
