//! Wire encodings for the secure-aggregation messages.
//!
//! Two message shapes travel during a masked round: a [`MaskedUpload`]
//! (one client's masked ring words — the prefix of the group's
//! [`BandLayout`](crate::BandLayout) its tier carries, so the count
//! field differs between tiers of one group) and a [`ShareBundle`] (one
//! escrowed seed share in transit from its owner to a holder). Both use the
//! workspace little-endian [`Reader`]/[`Writer`] primitives, fail with
//! the workspace's one [`DecodeError`] (never a panic), check hostile
//! length prefixes before allocating, and re-encode canonically —
//! properties the fuzz suite in `tests/wire_fuzz.rs` attacks directly.

use hf_tensor::wire::{DecodeError, Reader, Writer};

/// Message tag for [`MaskedUpload`].
pub const MASKED_UPLOAD_TAG: u8 = 0xA1;
/// Message tag for [`ShareBundle`].
pub const SHARE_BUNDLE_TAG: u8 = 0xA2;

/// One client's masked ring payload for one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskedUpload {
    /// Round the masks belong to.
    pub round: u64,
    /// Uploading client.
    pub uid: u64,
    /// Masked ring words, group-layout order: a prefix of the layout.
    pub words: Vec<u64>,
}

impl MaskedUpload {
    /// Encoded size in bytes of an upload of `words` ring words: tag,
    /// round, uid, count, then 8 bytes a word.
    pub fn encoded_len_for(words: usize) -> usize {
        1 + 8 + 8 + 4 + 8 * words
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_for(self.words.len())
    }

    /// Canonical little-endian encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.put_u8(MASKED_UPLOAD_TAG);
        w.put_u64_le(self.round);
        w.put_u64_le(self.uid);
        w.put_u32_le(self.words.len() as u32);
        for &word in &self.words {
            w.put_u64_le(word);
        }
        w.into_vec()
    }

    /// Decodes a buffer, rejecting truncation, trailing bytes, a wrong
    /// tag, and hostile word counts (checked before allocation).
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Reader::whole(buf, |r| {
            if r.get_u8()? != MASKED_UPLOAD_TAG {
                return Err(DecodeError::Invalid { field: "tag" });
            }
            let (round, uid) = (r.get_u64_le()?, r.get_u64_le()?);
            let n = r.get_u32_le()? as usize;
            let words = r.get_u64_vec(n)?;
            Ok(Self { round, uid, words })
        })
    }
}

/// One escrowed seed share in transit: `owner`'s secret, split, with
/// this piece destined for `holder`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShareBundle {
    /// Round the escrow belongs to.
    pub round: u64,
    /// Member whose secret was split.
    pub owner: u64,
    /// Peer holding this share.
    pub holder: u64,
    /// Evaluation point (never zero).
    pub x: u8,
    /// Packed share payload (little-endian bytes of the GF(256) shares).
    pub word: u64,
}

impl ShareBundle {
    /// Fixed encoded size in bytes.
    pub const ENCODED_LEN: usize = 1 + 8 + 8 + 8 + 1 + 8;

    /// Canonical little-endian encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(Self::ENCODED_LEN);
        w.put_u8(SHARE_BUNDLE_TAG);
        w.put_u64_le(self.round);
        w.put_u64_le(self.owner);
        w.put_u64_le(self.holder);
        w.put_u8(self.x);
        w.put_u64_le(self.word);
        w.into_vec()
    }

    /// Decodes a buffer; `x = 0` and `owner == holder` are structural
    /// errors (a member never holds its own escrow).
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Reader::whole(buf, |r| {
            if r.get_u8()? != SHARE_BUNDLE_TAG {
                return Err(DecodeError::Invalid { field: "tag" });
            }
            let (round, owner, holder) = (r.get_u64_le()?, r.get_u64_le()?, r.get_u64_le()?);
            let x = r.get_u8()?;
            if x == 0 {
                return Err(DecodeError::Invalid { field: "x" });
            }
            if owner == holder {
                return Err(DecodeError::Invalid { field: "holder" });
            }
            Ok(Self {
                round,
                owner,
                holder,
                x,
                word: r.get_u64_le()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_upload_round_trips() {
        let m = MaskedUpload {
            round: 9,
            uid: 42,
            words: vec![0, u64::MAX, 0x1234_5678_9abc_def0],
        };
        let buf = m.encode();
        assert_eq!(buf.len(), m.encoded_len());
        assert_eq!(MaskedUpload::decode(&buf).unwrap(), m);
    }

    #[test]
    fn share_bundle_round_trips_and_validates() {
        let s = ShareBundle {
            round: 2,
            owner: 5,
            holder: 9,
            x: 3,
            word: 0xfeed,
        };
        let buf = s.encode();
        assert_eq!(buf.len(), ShareBundle::ENCODED_LEN);
        assert_eq!(ShareBundle::decode(&buf).unwrap(), s);
        let zero_x = ShareBundle { x: 0, ..s }.encode();
        assert_eq!(
            ShareBundle::decode(&zero_x),
            Err(DecodeError::Invalid { field: "x" })
        );
        let self_held = ShareBundle { holder: 5, ..s }.encode();
        assert_eq!(
            ShareBundle::decode(&self_held),
            Err(DecodeError::Invalid { field: "holder" })
        );
    }

    #[test]
    fn hostile_word_count_fails_before_allocating() {
        let mut buf = MaskedUpload {
            round: 0,
            uid: 0,
            words: vec![],
        }
        .encode();
        // Overwrite the count field (offset 17) with u32::MAX.
        buf[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(MaskedUpload::decode(&buf), Err(DecodeError::Truncated));
    }
}
