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
//!   table chunk and the chunks of user records in flight at a time plus
//!   the 8-byte-per-user directory, so a 1M×1M artifact builds in bounded
//!   memory.
//!
//! Both paths generate users the way the training population is built
//! (`hf_dataset::SyntheticConfig::generate`): 16-user chunks fanned out
//! over [`population_workers`] threads by
//! [`hf_tensor::parallel::parallel_fill_ordered`], each chunk filled into
//! a recycled buffer of records whose lists are reused.
//! A user draws only from its own substreams, so which thread builds it
//! changes nothing, and the chunks are handed on in user order, so the
//! popularity counts and the fallback means (`f32` sums) add up in the
//! order a one-thread pass would use.
//!
//! **Byte-identity contract**: both paths draw every parameter from
//! purpose-keyed RNG streams in the same order and both files come out
//! of the one writer, so `synthesize(p, d, s).save_file(x)` and
//! `synthesize_to_file(p, d, s, x)` write the *same bytes* — pinned by a
//! test, as are the bytes themselves at 1, 2 and 8 workers, and the
//! foundation `examples/capacity.rs` stands on (its lazy and eager
//! rankings really are the same model).

use crate::artifact::{ModelArtifact, Tally, UserRecord, UserStore, UserView};
use crate::binfmt::{self, ArtifactWriter, HeldUsers, Meta};
use crate::lazy::Tiers;
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::types::{population_workers, user_chunks};
use hf_dataset::{SyntheticProfile, Tier};
use hf_models::{paper_predictor_dims, Ffn, ModelKind};
use hf_tensor::parallel::parallel_fill_ordered;
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
    /// The `users` section payload (directory + all records). Histories
    /// are delta-coded here at about a byte an id, where a decoded record
    /// holds four.
    pub users_bytes: u64,
    /// Total interactions across all users.
    pub interactions: u64,
}

/// The `meta` section of a synthesized artifact.
fn synth_meta(profile: &SyntheticProfile, dims: TierDims) -> Meta {
    Meta {
        model: ModelKind::Ncf,
        standalone: false,
        dims,
        num_items: profile.num_items,
        num_users: profile.num_users,
    }
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

/// History ids the profile's users hold between them, and the most bytes
/// their records can encode to, from each user's shape alone (two cheap
/// draws a user).
fn population_size(profile: &SyntheticProfile, dims: &TierDims, seed: u64) -> (usize, usize) {
    (0..profile.num_users).fold((0, 0), |(ids, bytes), u| {
        let (tier, n) = profile.user_shape(seed, u);
        let bound = binfmt::record_bound(dims.dim(tier), n, profile.num_items);
        (ids + n, bytes + bound)
    })
}

/// Synthesizes the profile's users on `workers` threads and lends each
/// to `f` in user order — the single source of user records for both
/// synthesis paths. A chunk's buffer holds its users' records (no
/// standalone state), whose lists a recycled buffer reuses. Each user
/// draws from its own substreams, so a chunk is the same whichever
/// thread fills it.
fn for_each_user(
    profile: &SyntheticProfile,
    dims: &TierDims,
    seed: u64,
    workers: usize,
    mut f: impl FnMut(UserView<'_>),
) {
    parallel_fill_ordered(
        &user_chunks(profile.num_users),
        workers,
        |users, records: &mut Vec<UserRecord>| {
            records.resize_with(users.len(), UserRecord::empty);
            for (user, record) in users.clone().zip(records.iter_mut()) {
                record.tier = profile.user_into(seed, user, &mut record.history);
                let mut rng = substream(seed, SeedStream::Custom(KEY_USER), user as u64 + 1);
                record.emb.clear();
                fill_normal(&mut rng, &mut record.emb, dims.dim(record.tier));
            }
        },
        |_, records| records.iter().for_each(|record| f(record.view())),
    );
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
        Self::synthesize_on(profile, dims, seed, None)
    }

    /// [`ModelArtifact::synthesize`] with users generated on `workers`
    /// threads, or on what [`population_workers`] gives their ids.
    fn synthesize_on(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
        workers: Option<usize>,
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

        // Sized from the users' shapes before any record is generated.
        let meta = synth_meta(profile, dims);
        let (ids, bound) = population_size(profile, &dims, seed);
        let mut tally = Tally::new(num_items, &dims);
        let workers = workers.unwrap_or_else(|| population_workers(ids));
        let users = HeldUsers::encode(meta, bound, |records| {
            for_each_user(profile, &dims, seed, workers, |user| {
                tally.add(user);
                records.put(user);
            })
        });
        let (popularity, fallback) = tally.finish();
        Ok(Self::assemble(
            meta,
            Tiers::filled(tables, thetas),
            UserStore::Held(users),
            popularity,
            fallback,
        ))
    }

    /// Streams a synthesized artifact straight to `path` in bounded
    /// memory: tables go out in `ROWS_PER_CHUNK`-row chunks, user
    /// records a chunk at a time, popularity and the fallback means
    /// accumulate as the records pass. Byte-identical to
    /// `synthesize(...)?.save_file(path)`, and atomic like it.
    pub fn synthesize_to_file(
        profile: &SyntheticProfile,
        dims: TierDims,
        seed: u64,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SynthStats, ServeError> {
        profile.validate().map_err(synth_err)?;
        let meta = synth_meta(profile, dims);
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
            let (ids, _) = population_size(profile, &dims, seed);
            let users_bytes = w.users(|records| {
                for_each_user(profile, &dims, seed, population_workers(ids), |user| {
                    tally.add(user);
                    records.put(user);
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
    use hf_tensor::parallel::WINDOW_PER_WORKER;

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

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn output_is_pinned_and_independent_of_the_worker_count() {
        // Digests of what the one-user-at-a-time generator (an ordered
        // set per history) wrote at commit 4a8305d.
        let pinned = [
            (256, 42, 0xaa17_b89e_beb9_604b_u64),
            (256, 7, 0xba83_8730_953b_692a),
            (10_000, 42, 0xe4e4_dd8f_bad8_72a9),
            (10_000, 7, 0xa676_bc27_940b_a31c),
        ];
        let dims = TierDims::new(8, 16, 32);
        let dir = std::env::temp_dir().join(format!("hf_synth_pinned_{}", std::process::id()));
        for (items, seed, want) in pinned {
            let profile = SyntheticProfile::new(2_000, items);
            assert!(
                user_chunks(profile.num_users).len() > WINDOW_PER_WORKER * 8,
                "more chunks than the 8-worker reorder window holds"
            );
            for workers in [1, 2, 8] {
                let bytes = ModelArtifact::synthesize_on(&profile, dims, seed, Some(workers))
                    .expect("valid profile")
                    .to_bytes();
                let got = fnv1a(&bytes);
                assert_eq!(
                    got, want,
                    "{items} items, seed {seed}, {workers} workers: {got:#018x}"
                );
            }
            let path = dir.join(format!("{items}-{seed}.hfa"));
            ModelArtifact::synthesize_to_file(&profile, dims, seed, &path).expect("streamed");
            assert_eq!(fnv1a(&std::fs::read(&path).expect("file")), want);
        }
        std::fs::remove_dir_all(&dir).ok();
        println!("synthesis bytes pinned at 1, 2 and 8 workers");
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
