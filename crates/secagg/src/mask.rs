//! Ring payload layout and pairwise mask expansion.
//!
//! A secure-aggregation group shares one [`BandLayout`]: a u64 ring
//! vector cut into three **nested tier bands**, so that what a member of
//! model tier τ can carry is a *prefix* of it:
//!
//! * band S — `num_items × widths[0]` item-delta words (row-major within
//!   the band), `num_items` per-item contributor counts (a masked 0/1
//!   indicator per client, so count normalization survives without
//!   revealing any individual interaction set), then `Θs`'s
//!   `theta_lens[0]` predictor-delta words, one quantized
//!   aggregation-weight word and one contributor-count word;
//! * band M — the next `widths[1] − widths[0]` columns of every row, then
//!   `Θm` + weight + count;
//! * band L — the last `widths[2] − widths[1]` columns, then `Θl` + 2.
//!
//! A tier-τ member quantizes, masks and uploads
//! [`BandLayout::prefix_words`]`(τ)` words — Table III's dense cost
//! `size(V_τ) + size({Θ_≤τ})` plus the counts and two words per
//! predictor. Every prefix is dense over the rows (a sparse encoding
//! would leak which items a client touched), and its length is the tier
//! the server itself assigned. [`PayloadLayout`] is the one-band case:
//! every column in band S, all members one length.
//!
//! Masks are expanded from the purpose-keyed RNG: pair secret `k` and
//! round `r` select `SeedStream::SecAggMask { round: r }`, and the lower
//! uid adds the stream while the higher subtracts it — over the words
//! both members carry, the shorter of their two prefixes — so masks
//! cancel exactly in the wrapping-u64 aggregate.

use hf_tensor::rng::{stream, Rng, SeedStream};
use std::ops::Range;

/// Shape of one group's ring vector: three nested tier bands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BandLayout {
    /// Item-table rows carried (the full table).
    pub num_items: usize,
    /// Table columns carried through each band, cumulative and
    /// non-decreasing: a tier-τ prefix holds columns `0..widths[τ]` of
    /// every row.
    pub widths: [usize; 3],
    /// Flattened predictor lengths per tier (0 when a tier is absent).
    pub theta_lens: [usize; 3],
}

impl BandLayout {
    /// Total ring words: the prefix of the largest tier.
    pub fn len(&self) -> usize {
        self.prefix_words(2)
    }

    /// `true` when the payload would carry nothing (degenerate).
    pub fn is_empty(&self) -> bool {
        self.num_items == 0 && self.theta_lens.iter().all(|&l| l == 0)
    }

    /// Ring words a member of tier `t` carries: bands `0..=t`.
    pub fn prefix_words(&self, t: usize) -> usize {
        self.num_items * (self.widths[t] + 1)
            + self.theta_lens[..=t].iter().sum::<usize>()
            + 2 * (t + 1)
    }

    /// Table columns whose deltas live in band `b`.
    pub fn band_columns(&self, b: usize) -> Range<usize> {
        let start = if b == 0 { 0 } else { self.widths[b - 1] };
        assert!(start <= self.widths[b], "band widths must not decrease");
        start..self.widths[b]
    }

    /// Offset of `row`'s [`BandLayout::band_columns`]`(b)` deltas.
    pub fn row_offset(&self, b: usize, row: usize) -> usize {
        let band = if b == 0 { 0 } else { self.prefix_words(b - 1) };
        band + row * self.band_columns(b).len()
    }

    /// Offset of the per-item contributor-count block (in band S).
    pub fn item_count_offset(&self) -> usize {
        self.num_items * self.widths[0]
    }

    /// Offset of tier `t`'s predictor-delta block (the tail of band `t`).
    pub fn theta_offset(&self, t: usize) -> usize {
        self.theta_weight_offset(t) - self.theta_lens[t]
    }

    /// Offset of tier `t`'s quantized aggregation-weight word.
    pub fn theta_weight_offset(&self, t: usize) -> usize {
        self.prefix_words(t) - 2
    }

    /// Offset of tier `t`'s contributor-count word.
    pub fn theta_count_offset(&self, t: usize) -> usize {
        self.prefix_words(t) - 1
    }
}

/// The one-band [`BandLayout`]: every one of `width` columns sits in
/// band S, so the item block is one row-major `num_items × width` table
/// and all members upload one length. This is the shape a uniform-length
/// caller builds (and what every group carried before tier prefixes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayloadLayout {
    /// Item-table rows carried (the full padded table).
    pub num_items: usize,
    /// Embedding width of the group's table slice.
    pub width: usize,
    /// Flattened predictor lengths per tier (0 when a tier is absent).
    pub theta_lens: [usize; 3],
}

impl PayloadLayout {
    /// This layout as the nested form it is a special case of.
    pub fn bands(&self) -> BandLayout {
        BandLayout {
            num_items: self.num_items,
            widths: [self.width; 3],
            theta_lens: self.theta_lens,
        }
    }

    /// Total ring words in a payload with this layout.
    pub fn len(&self) -> usize {
        self.bands().len()
    }

    /// `true` when the payload would carry nothing (degenerate).
    pub fn is_empty(&self) -> bool {
        self.bands().is_empty()
    }

    /// Offset of the per-item contributor-count block.
    pub fn item_count_offset(&self) -> usize {
        self.bands().item_count_offset()
    }

    /// Offset of tier `t`'s predictor-delta block.
    pub fn theta_offset(&self, t: usize) -> usize {
        self.bands().theta_offset(t)
    }

    /// Offset of tier `t`'s quantized aggregation-weight word.
    pub fn theta_weight_offset(&self, t: usize) -> usize {
        self.bands().theta_weight_offset(t)
    }

    /// Offset of tier `t`'s contributor-count word.
    pub fn theta_count_offset(&self, t: usize) -> usize {
        self.bands().theta_count_offset(t)
    }
}

/// Expands the pairwise mask stream for `(pair_secret, round)` to `len`
/// words. Exposed for tests; hot paths use [`apply_pair_mask`] to avoid
/// the intermediate allocation.
pub fn mask_words(pair_secret: u64, round: u64, len: usize) -> Vec<u64> {
    let mut rng = stream(pair_secret, SeedStream::SecAggMask { round });
    (0..len).map(|_| rng.next_u64()).collect()
}

/// Adds (`add = true`) or subtracts the pair's mask stream into `payload`
/// with wrapping ring arithmetic.
pub fn apply_pair_mask(payload: &mut [u64], pair_secret: u64, round: u64, add: bool) {
    let mut rng = stream(pair_secret, SeedStream::SecAggMask { round });
    if add {
        for w in payload.iter_mut() {
            *w = w.wrapping_add(rng.next_u64());
        }
    } else {
        for w in payload.iter_mut() {
            *w = w.wrapping_sub(rng.next_u64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_offsets_tile_the_payload_exactly() {
        let l = PayloadLayout {
            num_items: 10,
            width: 4,
            theta_lens: [3, 5, 7],
        };
        assert_eq!(l.item_count_offset(), 40);
        assert_eq!(l.theta_offset(0), 50);
        assert_eq!(l.theta_weight_offset(0), 53);
        assert_eq!(l.theta_count_offset(0), 54);
        assert_eq!(l.theta_offset(1), 55);
        assert_eq!(l.theta_offset(2), 62);
        assert_eq!(l.theta_count_offset(2), 70);
        assert_eq!(l.len(), 71);
        assert!(!l.is_empty());
    }

    /// Every block of bands `0..=t`, in layout order, as `start..end`.
    fn blocks(l: &BandLayout, t: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        for b in 0..=t {
            let width = l.band_columns(b).len();
            for row in 0..l.num_items {
                let at = l.row_offset(b, row);
                out.push(at..at + width);
            }
            if b == 0 {
                out.push(l.item_count_offset()..l.item_count_offset() + l.num_items);
            }
            out.push(l.theta_offset(b)..l.theta_offset(b) + l.theta_lens[b]);
            out.push(l.theta_weight_offset(b)..l.theta_weight_offset(b) + 1);
            out.push(l.theta_count_offset(b)..l.theta_count_offset(b) + 1);
        }
        out
    }

    #[test]
    fn band_offsets_tile_every_prefix_exactly() {
        // The benchmark's shape, a toy one, and the one-band case (empty
        // M and L column ranges).
        let layouts = [
            BandLayout {
                num_items: 927,
                widths: [8, 16, 32],
                theta_lens: [217, 345, 601],
            },
            BandLayout {
                num_items: 10,
                widths: [2, 3, 7],
                theta_lens: [3, 0, 5],
            },
            PayloadLayout {
                num_items: 10,
                width: 4,
                theta_lens: [0, 5, 0],
            }
            .bands(),
        ];
        for l in layouts {
            for t in 0..3 {
                let mut next = 0;
                for block in blocks(&l, t) {
                    assert_eq!(block.start, next, "{l:?}: gap or overlap in prefix {t}");
                    next = block.end;
                }
                assert_eq!(next, l.prefix_words(t), "{l:?}: prefix {t}");
            }
            assert_eq!(l.len(), l.prefix_words(2));
        }
        // Table III's dense cost of each tier (7 633 / 15 394 / 30 827
        // parameters), plus 927 counts and two words per predictor.
        assert_eq!(
            [0, 1, 2].map(|t| layouts[0].prefix_words(t)),
            [8_562, 16_325, 31_760]
        );
    }

    #[test]
    fn add_then_subtract_cancels_exactly() {
        let original: Vec<u64> = (0..64).map(|i| i * 0x9e37_79b9).collect();
        let mut payload = original.clone();
        apply_pair_mask(&mut payload, 0xdead_beef, 3, true);
        assert_ne!(payload, original, "mask must actually change the payload");
        apply_pair_mask(&mut payload, 0xdead_beef, 3, false);
        assert_eq!(payload, original);
    }

    #[test]
    fn mask_streams_differ_per_round_and_secret() {
        let a = mask_words(1, 0, 8);
        assert_eq!(a, mask_words(1, 0, 8));
        assert_ne!(a, mask_words(1, 1, 8));
        assert_ne!(a, mask_words(2, 0, 8));
    }
}
