//! Communication-cost accounting (Table III).
//!
//! Table III reports the one-time transmission cost per client type as
//! parameter counts: homogeneous baselines move `size(V) + size(Θ)` of
//! their single tier, while HeteFedRec moves the client's own tier table
//! plus the predictors of every tier at or below it (a `Um` client also
//! receives `Θs` for the unified dual-task loss; `Ul` receives all three).
//!
//! [`RoundCost`] captures one transmission analytically; [`CommLedger`]
//! accumulates actual measured bytes over a training run so experiments
//! can report both views.

/// Parameters moved by one client↔server transmission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundCost {
    /// Item-embedding parameters (`|V| × N` under dense accounting).
    pub item_params: usize,
    /// Predictor parameters across all transmitted tiers.
    pub theta_params: usize,
}

impl RoundCost {
    /// Total parameters.
    pub fn total(self) -> usize {
        self.item_params + self.theta_params
    }

    /// Total bytes at 4 bytes per `f32` parameter.
    pub fn bytes(self) -> usize {
        self.total() * 4
    }

    /// Cost of transmitting a dense `|V| x dim` table plus the given
    /// predictor sizes — the Table III formula `size(V_x) + size({Θ})`.
    pub fn dense(num_items: usize, dim: usize, theta_sizes: &[usize]) -> Self {
        Self {
            item_params: num_items * dim,
            theta_params: theta_sizes.iter().sum(),
        }
    }
}

impl hf_tensor::ser::ToJson for RoundCost {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("item_params", &self.item_params)
                .field("theta_params", &self.theta_params)
                .field("total", &self.total())
                .field("bytes", &self.bytes());
        });
    }
}

/// Accumulates measured communication over a run, split by direction.
#[derive(Clone, Debug, Default)]
pub struct CommLedger {
    /// Bytes uploaded by clients (sparse wire format).
    pub upload_bytes: u64,
    /// Bytes downloaded by clients (dense tier tables + predictors).
    pub download_bytes: u64,
    /// Upload transmissions recorded.
    pub uploads: u64,
    /// Download transmissions recorded.
    pub downloads: u64,
    /// Bytes of masked secure-aggregation uploads (subset of
    /// `upload_bytes`). A masked upload is dense over the item rows at
    /// the uploader's own tier width — Table III's cost at 8 bytes a ring
    /// word — so it is bigger than the sparse plaintext format, and this
    /// tracks how much of the upload volume travelled masked.
    pub secagg_masked_bytes: u64,
    /// Secure-aggregation setup traffic: public-key exchange plus
    /// escrowed seed-share bundles (not part of `upload_bytes`).
    pub secagg_setup_bytes: u64,
    /// Rounds that ran the masked upload path.
    pub secagg_rounds: u64,
}

impl CommLedger {
    /// Records one client upload of `bytes`.
    pub fn record_upload(&mut self, bytes: usize) {
        self.upload_bytes += bytes as u64;
        self.uploads += 1;
    }

    /// Records one **masked** client upload of `bytes` (counted in the
    /// normal upload totals *and* in the secagg overhead view).
    pub fn record_secagg_upload(&mut self, bytes: usize) {
        self.record_upload(bytes);
        self.secagg_masked_bytes += bytes as u64;
    }

    /// Records secure-aggregation setup traffic for one round.
    pub fn record_secagg_setup(&mut self, bytes: u64) {
        self.secagg_setup_bytes += bytes;
        self.secagg_rounds += 1;
    }

    /// Records one client download of `bytes`.
    pub fn record_download(&mut self, bytes: usize) {
        self.download_bytes += bytes as u64;
        self.downloads += 1;
    }

    /// Merges another ledger (e.g. from a worker thread).
    pub fn merge(&mut self, other: &CommLedger) {
        self.upload_bytes += other.upload_bytes;
        self.download_bytes += other.download_bytes;
        self.uploads += other.uploads;
        self.downloads += other.downloads;
        self.secagg_masked_bytes += other.secagg_masked_bytes;
        self.secagg_setup_bytes += other.secagg_setup_bytes;
        self.secagg_rounds += other.secagg_rounds;
    }

    /// Mean upload size in bytes, 0 when nothing was recorded.
    pub fn mean_upload(&self) -> f64 {
        if self.uploads == 0 {
            0.0
        } else {
            self.upload_bytes as f64 / self.uploads as f64
        }
    }

    /// Mean download size in bytes, 0 when nothing was recorded.
    pub fn mean_download(&self) -> f64 {
        if self.downloads == 0 {
            0.0
        } else {
            self.download_bytes as f64 / self.downloads as f64
        }
    }
}

impl hf_tensor::ser::ToJson for CommLedger {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("upload_bytes", &self.upload_bytes)
                .field("download_bytes", &self.download_bytes)
                .field("uploads", &self.uploads)
                .field("downloads", &self.downloads);
            // Emitted only when the masked path actually ran, so runs
            // with secure aggregation off serialize byte-identically to
            // every pre-secagg ledger.
            if self.secagg_masked_bytes != 0 || self.secagg_setup_bytes != 0 {
                o.field("secagg_masked_bytes", &self.secagg_masked_bytes)
                    .field("secagg_setup_bytes", &self.secagg_setup_bytes)
                    .field("secagg_rounds", &self.secagg_rounds);
            }
        });
    }
}

impl CommLedger {
    /// Restores a checkpointed ledger (the secagg fields are optional:
    /// absent in every ledger written before the masked path existed,
    /// and in every run with secure aggregation off).
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let opt_u64 = |key: &str| -> Result<u64, hf_tensor::ser::JsonError> {
            v.opt(key)
                .map(|x| x.as_u64())
                .transpose()
                .map(|x| x.unwrap_or(0))
        };
        Ok(Self {
            upload_bytes: v.get("upload_bytes")?.as_u64()?,
            download_bytes: v.get("download_bytes")?.as_u64()?,
            uploads: v.get("uploads")?.as_u64()?,
            downloads: v.get("downloads")?.as_u64()?,
            secagg_masked_bytes: opt_u64("secagg_masked_bytes")?,
            secagg_setup_bytes: opt_u64("secagg_setup_bytes")?,
            secagg_rounds: opt_u64("secagg_rounds")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_cost_formula() {
        // ML example from §V-F: Vs has 3706 * 8 = 29648 parameters.
        let c = RoundCost::dense(3_706, 8, &[217]);
        assert_eq!(c.item_params, 29_648);
        assert_eq!(c.theta_params, 217);
        assert_eq!(c.total(), 29_865);
        assert_eq!(c.bytes(), 29_865 * 4);
    }

    #[test]
    fn hetero_large_client_carries_all_thetas() {
        // Ul under HeteFedRec: size(Vl + {Θ}s,m,l).
        let c = RoundCost::dense(3_706, 32, &[217, 345, 601]);
        assert_eq!(c.item_params, 3_706 * 32);
        assert_eq!(c.theta_params, 217 + 345 + 601);
    }

    #[test]
    fn ledger_accumulates_and_averages() {
        let mut l = CommLedger::default();
        l.record_upload(100);
        l.record_upload(300);
        l.record_download(1000);
        assert_eq!(l.upload_bytes, 400);
        assert_eq!(l.mean_upload(), 200.0);
        assert_eq!(l.mean_download(), 1000.0);
    }

    #[test]
    fn ledger_merge() {
        let mut a = CommLedger::default();
        a.record_upload(10);
        let mut b = CommLedger::default();
        b.record_download(20);
        b.record_upload(30);
        a.merge(&b);
        assert_eq!(a.uploads, 2);
        assert_eq!(a.downloads, 1);
        assert_eq!(a.upload_bytes, 40);
    }

    #[test]
    fn empty_ledger_means_are_zero() {
        let l = CommLedger::default();
        assert_eq!(l.mean_upload(), 0.0);
        assert_eq!(l.mean_download(), 0.0);
    }

    #[test]
    fn secagg_fields_are_emitted_only_when_the_masked_path_ran() {
        use hf_tensor::ser::{parse_json, ToJson};
        let mut plain = CommLedger::default();
        plain.record_upload(100);
        let json = plain.to_json();
        assert!(
            !json.contains("secagg"),
            "a plaintext-only ledger must serialize without secagg fields: {json}"
        );
        let restored = CommLedger::from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(restored.to_json(), json);

        let mut masked = CommLedger::default();
        masked.record_secagg_upload(500);
        masked.record_secagg_setup(64);
        assert_eq!(masked.upload_bytes, 500);
        assert_eq!(masked.secagg_masked_bytes, 500);
        assert_eq!(masked.secagg_setup_bytes, 64);
        assert_eq!(masked.secagg_rounds, 1);
        let json = masked.to_json();
        assert!(json.contains("secagg_masked_bytes"));
        let restored = CommLedger::from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(restored.secagg_setup_bytes, 64);
        assert_eq!(restored.to_json(), json);
    }
}
