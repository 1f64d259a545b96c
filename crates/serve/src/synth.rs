//! Million-scale artifact synthesis.
//!
//! Capacity work needs artifacts whose *scale* is real even though their
//! *weights* are not: proving that lazy loading holds resident memory at
//! a million users requires a million-user file, and training one is
//! beside the point. This module turns an
//! [`hf_dataset::SyntheticProfile`] into a served artifact two ways:
//!
//! * [`ModelArtifact::synthesize`] — materialise everything in memory
//!   (the eager reference, fine up to a few hundred thousand users);
//! * [`ModelArtifact::synthesize_to_file`] — feed the same RNG streams
//!   straight into [`crate::binfmt`]'s streaming writer, holding one
//!   table chunk / one user record at a time plus the 12-byte-per-user
//!   directory, so a 1M×1M artifact builds in bounded memory.
//!
//! **Byte-identity contract**: both paths draw every parameter from
//! purpose-keyed RNG streams in the same order and both files come out
//! of the one writer, so `synthesize(p, d, s).save_file(x)` and
//! `synthesize_to_file(p, d, s, x)` write the *same bytes* — pinned by a
//! test, and the foundation `examples/capacity.rs` stands on (its lazy
//! and eager rankings really are the same model).

use crate::artifact::{ModelArtifact, Tally, UserArena, UserStore, UserView};
use crate::binfmt::{self, ArtifactWriter, Meta};
use crate::lazy::Tiers;
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::{SyntheticProfile, Tier};
use hf_models::{paper_predictor_dims, Ffn, ModelKind};
use hf_tensor::rng::{substream, Rng, SeedStream};
use hf_tensor::Matrix;

/// Purpose keys for the synthesis RNG streams (disjoint from the
/// dataset-profile key and from every other `Custom` stream).
const KEY_TABLE: u64 = 0x7362_7431; // "sbt1"
const KEY_THETA: u64 = 0x7362_7432;
const KEY_USER: u64 = 0x7362_7433;

/// Init scale for synthesized tables and embeddings.
const SCALE: f32 = 0.1;

/// Table rows synthesized per write chunk on the streaming path.
const ROWS_PER_CHUNK: usize = 4096;

/// What [`ModelArtifact::synthesize_to_file`] wrote — the analytic
/// breakdown capacity runs report alongside measured footprints.
#[derive(Clone, Copy, Debug)]
pub struct SynthStats {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// The `tables` section payload (directory + three matrices).
    pub tables_bytes: u64,
    /// The `users` section payload (directory + all records) — the term
    /// an eager load pays in full and a lazy load caps at the shard LRU.
    pub users_bytes: u64,
    /// Total interactions across all users.
    pub interactions: u64,
}

fn synth_err(e: String) -> ServeError {
    ServeError::Artifact(format!("bad synthetic profile: {e}"))
}

/// Extends `out` with `n` scaled normal draws — the single source of
/// table/embedding values for both synthesis paths.
fn fill_normal(rng: &mut impl Rng, out: &mut Vec<f32>, n: usize) {
    out.extend(std::iter::repeat_with(|| rng.standard_normal_f32() * SCALE).take(n));
}

fn table_rng(seed: u64, t: usize) -> impl Rng {
    substream(seed, SeedStream::Custom(KEY_TABLE), t as u64)
}

fn theta(seed: u64, t: usize, dim: usize) -> Ffn {
    let mut rng = substream(seed, SeedStream::Custom(KEY_THETA), t as u64);
    Ffn::new(&paper_predictor_dims(dim), &mut rng)
}

/// Synthesizes one user (no standalone state) and lends it to `sink` —
/// the single source of user records for both synthesis paths. `emb` is
/// scratch, reused across users.
fn synth_user(
    profile: &SyntheticProfile,
    dims: &TierDims,
    seed: u64,
    user: usize,
    emb: &mut Vec<f32>,
    sink: impl FnOnce(UserView<'_>),
) {
    let (tier, history) = profile.user(seed, user);
    let mut rng = substream(seed, SeedStream::Custom(KEY_USER), user as u64 + 1);
    emb.clear();
    fill_normal(&mut rng, emb, dims.dim(tier));
    sink(UserView {
        tier,
        emb,
        history: &history,
        solo: None,
    })
}

impl ModelArtifact {
    /// Builds an in-memory artifact from a capacity profile: NCF model,
    /// per-tier tables and paper-architecture predictors with seeded
    /// normal weights, one user record per profile user (no standalone
    /// state). Deterministic in `(profile, dims, seed)` and — record for
    /// record, byte for byte — identical to what
    /// [`ModelArtifact::synthesize_to_file`] writes.
    pub fn synthesize(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
    ) -> Result<Self, ServeError> {
        profile.validate().map_err(synth_err)?;
        let num_items = profile.num_items;

        let tables: [Matrix; 3] = std::array::from_fn(|t| {
            let cols = dims.dim(Tier::ALL[t]);
            let mut rng = table_rng(seed, t);
            let mut data = Vec::with_capacity(num_items * cols);
            fill_normal(&mut rng, &mut data, num_items * cols);
            Matrix::from_vec(num_items, cols, data)
        });
        let thetas: [Ffn; 3] = std::array::from_fn(|t| theta(seed, t, dims.dim(Tier::ALL[t])));

        // Sized exactly from the profile's shapes (two cheap draws a
        // user) before any record is generated.
        let (embs, ids) = (0..profile.num_users).fold((0, 0), |(embs, ids), u| {
            let (tier, interactions) = profile.user_shape(seed, u);
            (embs + dims.dim(tier), ids + interactions)
        });
        let mut users = UserArena::with_capacity(profile.num_users, embs, ids);
        let mut tally = Tally::new(num_items, &dims);
        let mut emb = Vec::new();
        for u in 0..profile.num_users {
            synth_user(profile, &dims, seed, u, &mut emb, |user| {
                tally.add(user);
                users.push(user);
            });
        }
        let (popularity, fallback) = tally.finish();

        Ok(Self {
            model: ModelKind::Ncf,
            dims,
            standalone: false,
            num_items,
            params: Tiers::filled(tables, thetas),
            users: UserStore::Eager(users),
            popularity,
            fallback,
        })
    }

    /// Streams a synthesized v2 artifact straight to `path` in bounded
    /// memory: tables go out in `ROWS_PER_CHUNK`-row chunks, user
    /// records one at a time, popularity and the fallback means
    /// accumulate as the records pass. Byte-identical to
    /// `synthesize(...)?.save_file(path)`, and atomic like it.
    pub fn synthesize_to_file(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SynthStats, ServeError> {
        profile.validate().map_err(synth_err)?;
        let meta = Meta {
            model: ModelKind::Ncf,
            standalone: false,
            dims,
            num_items: profile.num_items,
            num_users: profile.num_users,
        };
        binfmt::write_file(path.as_ref(), |out| {
            let mut w = ArtifactWriter::begin(out, meta)?;
            let tables_bytes = w.tables(|tier| {
                let cols = dims.dim(tier);
                let mut rng = table_rng(seed, tier.index());
                (0..meta.num_items).step_by(ROWS_PER_CHUNK).map(move |row| {
                    let rows = ROWS_PER_CHUNK.min(meta.num_items - row);
                    let mut chunk = Vec::with_capacity(rows * cols);
                    fill_normal(&mut rng, &mut chunk, rows * cols);
                    chunk
                })
            })?;
            let thetas: [Ffn; 3] = std::array::from_fn(|t| theta(seed, t, dims.dim(Tier::ALL[t])));
            w.thetas(thetas.each_ref())?;

            let mut tally = Tally::new(meta.num_items, &dims);
            let mut emb = Vec::new();
            let users_bytes = w.users(|u, out| {
                synth_user(profile, &dims, seed, u, &mut emb, |user| {
                    tally.add(user);
                    binfmt::put_user(out, user);
                })
            })?;
            let (popularity, fallback) = tally.finish();
            let (_, file_bytes) = w.finish(&popularity, &fallback)?;
            Ok(SynthStats {
                file_bytes,
                tables_bytes,
                users_bytes,
                interactions: popularity.iter().map(|&p| p as u64).sum(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_dataset::SyntheticProfile;

    #[test]
    fn streaming_and_eager_synthesis_are_byte_identical() {
        let profile = SyntheticProfile::new(600, 900);
        let dims = TierDims::new(4, 8, 16);
        let dir = std::env::temp_dir().join(format!("hf_synth_test_{}", std::process::id()));
        let path = dir.join("streamed.hfa");
        let stats = ModelArtifact::synthesize_to_file(&profile, dims, 42, &path).expect("streamed");
        let streamed = std::fs::read(&path).expect("file");
        let eager = ModelArtifact::synthesize(&profile, dims, 42).expect("eager");
        assert_eq!(
            eager.to_bytes(),
            streamed,
            "streaming writer must reproduce the eager encoder byte for byte"
        );
        assert_eq!(stats.file_bytes, streamed.len() as u64);
        assert!(stats.users_bytes > 0 && stats.tables_bytes > 0);
        let total: u64 = (0..eager.num_items() as u32)
            .map(|i| eager.popularity(i) as u64)
            .sum();
        assert_eq!(total, stats.interactions);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synthesis_is_deterministic_and_validated() {
        let profile = SyntheticProfile::new(50, 200);
        let dims = TierDims::new(4, 8, 16);
        let a = ModelArtifact::synthesize(&profile, dims, 7).unwrap();
        let b = ModelArtifact::synthesize(&profile, dims, 7).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
        let c = ModelArtifact::synthesize(&profile, dims, 8).unwrap();
        assert_ne!(a.to_bytes(), c.to_bytes(), "seed must matter");
        assert!(ModelArtifact::synthesize(&SyntheticProfile::new(0, 10), dims, 1).is_err());
    }
}
