//! The Adam optimiser step.
//!
//! The paper adopts Adam with learning rate 0.001 (Section V-D). [`Adam`]
//! holds the hyper-parameters and the step count; the caller owns the
//! parameters and both moments and passes them to [`Adam::step`] as
//! slices. Each client steps its private user embedding with it, keeping
//! embedding and moments in one allocation.

/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Learning rate (paper: 0.001).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabiliser.
    pub eps: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl AdamConfig {
    /// Convenience constructor overriding only the learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Self {
            lr,
            ..Self::default()
        }
    }
}

/// Adam's step over caller-owned moments: the hyper-parameters and the
/// number of steps taken. The first and second moments live wherever
/// the caller keeps its parameters (a client keeps embedding and both
/// moments in one allocation), so this is 24 bytes and no heap.
#[derive(Clone, Copy, Debug)]
pub struct Adam {
    config: AdamConfig,
    t: u64,
}

impl Adam {
    /// A fresh optimiser: no steps taken (moments start at zero).
    pub fn new(config: AdamConfig) -> Self {
        Self { config, t: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update: `params -= lr * m̂ / (sqrt(v̂) + eps)`,
    /// advancing the moments `m` and `v` over `params` in place.
    ///
    /// # Panics
    /// Panics if `grads`, `m` or `v` length differs from `params`.
    pub fn step(&mut self, params: &mut [f32], m: &mut [f32], v: &mut [f32], grads: &[f32]) {
        assert_eq!(grads.len(), params.len(), "grad length mismatch");
        assert_eq!(m.len(), params.len(), "moment length mismatch");
        assert_eq!(v.len(), params.len(), "moment length mismatch");
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            eps,
        } = self.config;
        let bc1 = 1.0 - beta1.powi(self.t as i32);
        let bc2 = 1.0 - beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            m[i] = beta1 * m[i] + (1.0 - beta1) * g;
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint (de)serialization
// ---------------------------------------------------------------------------

use crate::ser::{obj, JsonError, JsonValue, ToJson};

impl ToJson for AdamConfig {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("lr", &self.lr)
                .field("beta1", &self.beta1)
                .field("beta2", &self.beta2)
                .field("eps", &self.eps);
        });
    }
}

impl AdamConfig {
    /// Restores a checkpointed configuration.
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        Ok(Self {
            lr: v.get("lr")?.as_f32()?,
            beta1: v.get("beta1")?.as_f32()?,
            beta2: v.get("beta2")?.as_f32()?,
            eps: v.get("eps")?.as_f32()?,
        })
    }
}

/// Adam's checkpoint form, `{"config","t","m","v"}`, over the moments
/// its caller holds ([`Adam::json`]).
pub struct AdamJson<'a> {
    adam: &'a Adam,
    m: &'a [f32],
    v: &'a [f32],
}

impl ToJson for AdamJson<'_> {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("config", &self.adam.config)
                .field("t", &self.adam.t)
                .field("m", &self.m)
                .field("v", &self.v);
        });
    }
}

impl Adam {
    /// The checkpoint form of this optimiser with moments `m` and `v`.
    pub fn json<'a>(&'a self, m: &'a [f32], v: &'a [f32]) -> AdamJson<'a> {
        AdamJson { adam: self, m, v }
    }

    /// Restores checkpointed optimiser state: the optimiser and its two
    /// moments, of equal length.
    pub fn from_json(v: &JsonValue<'_>) -> Result<(Self, Vec<f32>, Vec<f32>), JsonError> {
        let m = v.get("m")?.as_f32_vec()?;
        let vv = v.get("v")?.as_f32_vec()?;
        if m.len() != vv.len() {
            return Err(JsonError::msg("adam moment length mismatch"));
        }
        let adam = Self {
            config: AdamConfig::from_json(v.get("config")?)?,
            t: v.get("t")?.as_u64()?,
        };
        Ok((adam, m, vv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(x) = (x-3)² should converge to 3.
    #[test]
    fn dense_adam_minimises_quadratic() {
        let mut adam = Adam::new(AdamConfig::with_lr(0.1));
        let (mut x, mut m, mut v) = ([0.0_f32], [0.0_f32], [0.0_f32]);
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &mut m, &mut v, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias correction makes the very first step ≈ lr * sign(g).
        let mut adam = Adam::new(AdamConfig::with_lr(0.01));
        let (mut x, mut m, mut v) = ([1.0_f32], [0.0_f32], [0.0_f32]);
        adam.step(&mut x, &mut m, &mut v, &[42.0]);
        assert!((x[0] - (1.0 - 0.01)).abs() < 1e-4, "x = {}", x[0]);
    }

    #[test]
    fn zero_gradient_is_a_noop() {
        let mut adam = Adam::new(AdamConfig::default());
        let (mut x, mut m, mut v) = ([1.0, 2.0, 3.0], [0.0; 3], [0.0; 3]);
        adam.step(&mut x, &mut m, &mut v, &[0.0, 0.0, 0.0]);
        assert_eq!(x, [1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn dense_rejects_mismatched_grad() {
        let mut adam = Adam::new(AdamConfig::default());
        let (mut x, mut m, mut v) = ([0.0, 0.0], [0.0; 2], [0.0; 2]);
        adam.step(&mut x, &mut m, &mut v, &[1.0]);
    }

    #[test]
    fn dense_adam_checkpoint_resumes_bit_identically() {
        use crate::ser::parse_json;
        let mut a = Adam::new(AdamConfig::with_lr(0.05));
        let (mut x, mut m, mut v) = ([1.0_f32, -2.0, 0.5], [0.0; 3], [0.0; 3]);
        for step in 0..7 {
            a.step(&mut x, &mut m, &mut v, &[0.1 * step as f32, -0.2, 0.3]);
        }
        let json = a.json(&m, &v).to_json();
        let (mut b, mb, vb) = Adam::from_json(&parse_json(&json).unwrap()).unwrap();
        let (mut ma, mut va) = (m, v);
        let (mut mb, mut vb): ([f32; 3], [f32; 3]) =
            (mb.try_into().unwrap(), vb.try_into().unwrap());
        let mut xa = x;
        let mut xb = x;
        for _ in 0..5 {
            a.step(&mut xa, &mut ma, &mut va, &[0.4, -0.1, 0.05]);
            b.step(&mut xb, &mut mb, &mut vb, &[0.4, -0.1, 0.05]);
        }
        assert_eq!(xa.map(f32::to_bits), xb.map(f32::to_bits));
        assert_eq!(a.steps(), b.steps());
    }
}
