//! Dense Adam optimiser state.
//!
//! The paper adopts Adam with learning rate 0.001 (Section V-D). [`Adam`]
//! keeps its moments over a flat parameter vector; each client steps its
//! private user embedding with it.

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

/// Dense Adam state over a flat parameter vector.
#[derive(Clone, Debug)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates state for `len` parameters.
    pub fn new(len: usize, config: AdamConfig) -> Self {
        Self {
            config,
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
        }
    }

    /// Number of tracked parameters.
    pub fn len(&self) -> usize {
        self.m.len()
    }

    /// `true` when tracking zero parameters.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update: `params -= lr * m̂ / (sqrt(v̂) + eps)`.
    ///
    /// # Panics
    /// Panics if `params` or `grads` length differs from the state length.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param length mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad length mismatch");
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
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
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

impl ToJson for Adam {
    fn write_json(&self, out: &mut String) {
        obj(out, |o| {
            o.field("config", &self.config)
                .field("t", &self.t)
                .field("m", &self.m)
                .field("v", &self.v);
        });
    }
}

impl Adam {
    /// Restores checkpointed optimiser state (moments and timestep).
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let m = v.get("m")?.as_f32_vec()?;
        let vv = v.get("v")?.as_f32_vec()?;
        if m.len() != vv.len() {
            return Err(JsonError::msg("adam moment length mismatch"));
        }
        Ok(Self {
            config: AdamConfig::from_json(v.get("config")?)?,
            t: v.get("t")?.as_u64()?,
            m,
            v: vv,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(x) = (x-3)² should converge to 3.
    #[test]
    fn dense_adam_minimises_quadratic() {
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1));
        let mut x = [0.0_f32];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's bias correction makes the very first step ≈ lr * sign(g).
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.01));
        let mut x = [1.0_f32];
        adam.step(&mut x, &[42.0]);
        assert!((x[0] - (1.0 - 0.01)).abs() < 1e-4, "x = {}", x[0]);
    }

    #[test]
    fn zero_gradient_is_a_noop() {
        let mut adam = Adam::new(3, AdamConfig::default());
        let mut x = [1.0, 2.0, 3.0];
        adam.step(&mut x, &[0.0, 0.0, 0.0]);
        assert_eq!(x, [1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn dense_rejects_mismatched_grad() {
        let mut adam = Adam::new(2, AdamConfig::default());
        let mut x = [0.0, 0.0];
        adam.step(&mut x, &[1.0]);
    }

    #[test]
    fn dense_adam_checkpoint_resumes_bit_identically() {
        use crate::ser::parse_json;
        let mut a = Adam::new(3, AdamConfig::with_lr(0.05));
        let mut x = [1.0_f32, -2.0, 0.5];
        for step in 0..7 {
            a.step(&mut x, &[0.1 * step as f32, -0.2, 0.3]);
        }
        let mut b = Adam::from_json(&parse_json(&a.to_json()).unwrap()).unwrap();
        let mut xa = x;
        let mut xb = x;
        for _ in 0..5 {
            a.step(&mut xa, &[0.4, -0.1, 0.05]);
            b.step(&mut xb, &[0.4, -0.1, 0.05]);
        }
        assert_eq!(xa.map(f32::to_bits), xb.map(f32::to_bits));
        assert_eq!(a.steps(), b.steps());
    }
}
