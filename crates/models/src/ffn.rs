//! The shared feedforward preference predictor (`Θ` in the paper).
//!
//! Architecture per §V-D: layer sizes `[2N, 8, 8] → 1`, ReLU between
//! hidden layers, identity on the output (the loss consumes logits).
//! `Θ` travels between clients and server as a flat `Vec<f32>`; both the
//! heterogeneous aggregation (Eq. 15) and the communication accounting
//! (Table III) work on that flat form, and an [`Ffn`] holds its
//! parameters in that one layout, so no boundary converts.

use hf_tensor::ops::{axpy_slice, dot, relu, relu_grad};
use hf_tensor::rng::Rng;
use hf_tensor::ser::{JsonError, JsonValue};

/// A multi-layer perceptron with ReLU hidden activations and a linear
/// single-output head, held in the flat layout it travels in.
#[derive(Clone, Debug, PartialEq)]
pub struct Ffn {
    dims: Vec<usize>,
    /// Every parameter, per layer: the `dims[l + 1] x dims[l]` weights
    /// row-major (row `o` feeds output unit `o`), then the bias.
    params: Vec<f32>,
}

impl Ffn {
    /// Builds an FFN with the given layer sizes (`dims[0]` inputs through
    /// `dims.last()` outputs): Glorot-initialised weights, drawn layer by
    /// layer, and zero biases.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given or the parameter count
    /// overflows `usize`.
    pub fn new(dims: &[usize], rng: &mut impl Rng) -> Self {
        assert!(
            dims.len() >= 2,
            "an FFN needs at least input and output sizes"
        );
        let count = Self::param_count(dims).expect("FFN parameter count overflows usize");
        let mut params = vec![0.0; count];
        let mut at = 0;
        for w in dims.windows(2) {
            let (n_in, n_out) = (w[0], w[1]);
            hf_tensor::init::fill_glorot_uniform(
                &mut params[at..at + n_out * n_in],
                n_out,
                n_in,
                rng,
            );
            at += n_out * n_in + n_out;
        }
        Self {
            dims: dims.to_vec(),
            params,
        }
    }

    /// Parameter count of an FFN with layer sizes `dims` (per layer
    /// `out × in` weights plus `out` biases), or `None` if it overflows
    /// `usize` — `dims` may be a file's claim.
    pub fn param_count(dims: &[usize]) -> Option<usize> {
        dims.windows(2).try_fold(0usize, |sum, w| {
            sum.checked_add(w[1].checked_mul(w[0])?.checked_add(w[1])?)
        })
    }

    /// Zero-valued FFN with the same shape (gradient accumulator).
    pub fn zeros_like(&self) -> Self {
        Self {
            dims: self.dims.clone(),
            params: vec![0.0; self.params.len()],
        }
    }

    /// Layer sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// All parameters in their transport layout (per layer: row-major
    /// weights, then bias).
    pub fn as_flat(&self) -> &[f32] {
        &self.params
    }

    /// Mutable view of [`Ffn::as_flat`] (server-side update application).
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Reconstructs an FFN of shape `dims` from [`Ffn::as_flat`] output.
    ///
    /// # Panics
    /// Panics if the flat length does not match the shape.
    pub fn from_flat(dims: &[usize], flat: &[f32]) -> Self {
        assert!(dims.len() >= 2);
        assert_eq!(
            Some(flat.len()),
            Self::param_count(dims),
            "flat parameter length mismatch"
        );
        Self {
            dims: dims.to_vec(),
            params: flat.to_vec(),
        }
    }

    /// `self += alpha * other`, shape-checked (gradient steps).
    pub fn add_scaled(&mut self, alpha: f32, other: &Ffn) {
        assert_eq!(self.dims, other.dims, "FFN shape mismatch");
        axpy_slice(&mut self.params, alpha, &other.params);
    }

    /// Sets every parameter to zero (gradient-buffer reset).
    pub fn zero(&mut self) {
        self.params.fill(0.0);
    }

    /// Forward pass producing the scalar logit, recording activations in
    /// `cache` for the backward pass. `cache` must come from
    /// [`FfnCache::for_ffn`] on an identically shaped FFN.
    ///
    /// # Panics
    /// Panics if `input` width differs from `dims[0]`.
    pub fn forward(&self, input: &[f32], cache: &mut FfnCache) -> f32 {
        assert_eq!(input.len(), self.dims[0], "input width mismatch");
        cache.input.clear();
        cache.input.extend_from_slice(input);
        let last = self.num_layers() - 1;
        let mut at = 0;
        for l in 0..=last {
            let (n_in, n_out) = (self.dims[l], self.dims[l + 1]);
            let (w, b) = self.params[at..].split_at(n_out * n_in);
            at += n_out * n_in + n_out;
            // `pre` and `post` are distinct fields, so reading the previous
            // layer's activations while writing this layer's borrows cleanly.
            {
                let src: &[f32] = if l == 0 {
                    &cache.input
                } else {
                    &cache.post[l - 1]
                };
                let pre = &mut cache.pre[l];
                for (o, out) in pre.iter_mut().enumerate() {
                    *out = dot(&w[o * n_in..][..n_in], src) + b[o];
                }
            }
            let (pre_done, post_rest) = (&cache.pre[l], &mut cache.post[l]);
            if l == last {
                post_rest.copy_from_slice(pre_done);
            } else {
                for (p, &z) in post_rest.iter_mut().zip(pre_done.iter()) {
                    *p = relu(z);
                }
            }
        }
        cache.post[last][0]
    }

    /// Backward pass for a single sample.
    ///
    /// `d_logit` is `∂L/∂logit`; gradients accumulate into `grads`
    /// (shape-matched, from [`Ffn::zeros_like`]) and the gradient with
    /// respect to the input is written into `d_input`. The per-layer
    /// deltas ping-pong between two scratch buffers `cache` owns, so a
    /// sample allocates nothing.
    pub fn backward(
        &self,
        d_logit: f32,
        cache: &mut FfnCache,
        grads: &mut Ffn,
        d_input: &mut [f32],
    ) {
        assert_eq!(self.dims, grads.dims, "grad accumulator shape mismatch");
        assert_eq!(d_input.len(), self.dims[0], "d_input width mismatch");
        let FfnCache {
            input,
            pre,
            post,
            delta,
            d_src,
        } = cache;
        let last = self.num_layers() - 1;
        // Layers are walked from the output back, so `at` steps down from
        // the end of the flat layout.
        let mut at = self.params.len();
        // delta[..dims[l + 1]] holds ∂L/∂pre[l] as we walk backwards; the
        // output layer is linear and only its first unit is the logit.
        delta[0] = d_logit;
        for l in (0..=last).rev() {
            let (n_in, n_out) = (self.dims[l], self.dims[l + 1]);
            at -= n_out * n_in + n_out;
            let src: &[f32] = if l == 0 { input } else { &post[l - 1] };
            let delta_l = &delta[..if l == last { 1 } else { n_out }];
            // Parameter gradients.
            let (gw, gb) = grads.params[at..].split_at_mut(n_out * n_in);
            for (o, &d) in delta_l.iter().enumerate() {
                if d != 0.0 {
                    axpy_slice(&mut gw[o * n_in..][..n_in], d, src);
                }
                gb[o] += d;
            }
            // Propagate to the layer input.
            let w = &self.params[at..at + n_out * n_in];
            let d_src_l = &mut d_src[..n_in];
            d_src_l.fill(0.0);
            for (o, &d) in delta_l.iter().enumerate() {
                if d != 0.0 {
                    axpy_slice(d_src_l, d, &w[o * n_in..][..n_in]);
                }
            }
            if l == 0 {
                d_input.copy_from_slice(d_src_l);
            } else {
                // Through the ReLU of layer l-1.
                for (ds, &pre) in d_src_l.iter_mut().zip(pre[l - 1].iter()) {
                    *ds *= relu_grad(pre);
                }
                std::mem::swap(delta, d_src);
            }
        }
    }

    /// Largest absolute parameter (diagnostics / divergence guards).
    pub fn max_abs(&self) -> f32 {
        self.params.iter().fold(0.0_f32, |m, x| m.max(x.abs()))
    }
}

impl hf_tensor::ser::ToJson for Ffn {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("dims", &self.dims).field("flat", &self.as_flat());
        });
    }
}

impl Ffn {
    /// Restores a checkpointed FFN ([`Ffn::as_flat`] layout, shape-checked).
    pub fn from_json(v: &JsonValue<'_>) -> Result<Self, JsonError> {
        let dims = v.get("dims")?.as_usize_vec()?;
        let params = v.get("flat")?.as_f32_vec()?;
        if dims.len() < 2 {
            return Err(JsonError::msg("ffn needs >= 2 layer sizes"));
        }
        if Self::param_count(&dims) != Some(params.len()) {
            return Err(JsonError::msg(format!(
                "ffn flat length {} does not match dims {dims:?}",
                params.len()
            )));
        }
        Ok(Self { dims, params })
    }
}

/// Reusable forward activations and backward scratch (one per worker
/// thread; the hot loop allocates nothing per sample).
#[derive(Clone, Debug)]
pub struct FfnCache {
    input: Vec<f32>,
    pre: Vec<Vec<f32>>,
    post: Vec<Vec<f32>>,
    /// [`Ffn::backward`]'s two delta buffers, each as wide as the widest
    /// layer.
    delta: Vec<f32>,
    d_src: Vec<f32>,
}

impl FfnCache {
    /// Allocates a cache matching `ffn`'s shape.
    pub fn for_ffn(ffn: &Ffn) -> Self {
        let widest = ffn.dims.iter().copied().max().unwrap_or(0);
        Self {
            input: Vec::with_capacity(ffn.dims[0]),
            pre: ffn.dims[1..].iter().map(|&d| vec![0.0; d]).collect(),
            post: ffn.dims[1..].iter().map(|&d| vec![0.0; d]).collect(),
            delta: vec![0.0; widest],
            d_src: vec![0.0; widest],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::ops::{bce_with_logits, bce_with_logits_grad};
    use hf_tensor::rng::{stream, SeedStream};

    fn make(dims: &[usize], seed: u64) -> Ffn {
        let mut rng = stream(seed, SeedStream::ParamInit);
        Ffn::new(dims, &mut rng)
    }

    #[test]
    fn forward_of_zero_weights_is_bias() {
        let mut ffn = make(&[4, 3, 1], 1);
        ffn.zero();
        let mut cache = FfnCache::for_ffn(&ffn);
        assert_eq!(ffn.forward(&[1.0, 2.0, 3.0, 4.0], &mut cache), 0.0);
    }

    #[test]
    fn forward_known_linear_case() {
        // Single layer [2 -> 1]: logit = w . x + b.
        let ffn = Ffn::from_flat(&[2, 1], &[0.5, -1.0, 0.25]); // w00 w01 b0
        let mut cache = FfnCache::for_ffn(&ffn);
        let y = ffn.forward(&[2.0, 3.0], &mut cache);
        assert!((y - (0.5 * 2.0 - 1.0 * 3.0 + 0.25)).abs() < 1e-6);
    }

    #[test]
    fn flat_roundtrip_preserves_parameters() {
        let ffn = make(&[6, 8, 8, 1], 3);
        let flat = ffn.as_flat();
        assert_eq!(flat.len(), ffn.num_params());
        let back = Ffn::from_flat(&[6, 8, 8, 1], flat);
        assert_eq!(ffn, back);
    }

    #[test]
    fn json_roundtrip_preserves_parameters_bit_exactly() {
        use hf_tensor::ser::{parse_json, ToJson};
        let ffn = make(&[6, 8, 8, 1], 3);
        let back = Ffn::from_json(&parse_json(&ffn.to_json()).unwrap()).unwrap();
        assert_eq!(ffn.dims(), back.dims());
        for (a, b) in ffn.as_flat().iter().zip(back.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let bad = parse_json(r#"{"dims":[2,1],"flat":[0.5]}"#).unwrap();
        assert!(Ffn::from_json(&bad).is_err());
        // Layer sizes whose parameter count overflows `usize` are refused,
        // not multiplied out.
        let huge = parse_json(r#"{"dims":[4294967296,4294967296,1],"flat":[0.5]}"#).unwrap();
        let err = Ffn::from_json(&huge).unwrap_err();
        assert!(err.to_string().contains("does not match dims"), "{err}");
    }

    #[test]
    fn num_params_matches_paper_architecture() {
        // [2N, 8, 8, 1] with N=8: (16*8+8) + (8*8+8) + (8*1+1) = 217.
        let ffn = make(&crate::paper_predictor_dims(8), 4);
        assert_eq!(ffn.num_params(), 217);
    }

    #[test]
    fn add_scaled_accumulates() {
        let ffn = make(&[3, 2, 1], 5);
        let mut acc = ffn.zeros_like();
        acc.add_scaled(2.0, &ffn);
        acc.add_scaled(-2.0, &ffn);
        assert!(acc.max_abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let dims = [5, 6, 4, 1];
        let ffn = make(&dims, 6);
        let mut rng = stream(99, SeedStream::Custom(1));
        let input = hf_tensor::init::normal_vec(5, 1.0, &mut rng);
        let target = 1.0;

        let mut cache = FfnCache::for_ffn(&ffn);
        let logit = ffn.forward(&input, &mut cache);
        let mut grads = ffn.zeros_like();
        let mut d_input = vec![0.0; 5];
        ffn.backward(
            bce_with_logits_grad(logit, target),
            &mut cache,
            &mut grads,
            &mut d_input,
        );

        let flat = ffn.as_flat();
        let gflat = grads.as_flat();
        let eps = 1e-2;
        let mut checked = 0;
        for idx in (0..flat.len()).step_by(5) {
            let mut fplus = flat.to_vec();
            fplus[idx] += eps;
            let mut fminus = flat.to_vec();
            fminus[idx] -= eps;
            let fp = Ffn::from_flat(&dims, &fplus);
            let fm = Ffn::from_flat(&dims, &fminus);
            let lp = bce_with_logits(fp.forward(&input, &mut cache), target);
            let lm = bce_with_logits(fm.forward(&input, &mut cache), target);
            let fd = (lp - lm) / (2.0 * eps);
            let g = gflat[idx];
            assert!(
                (fd - g).abs() < 5e-3 * fd.abs().max(g.abs()).max(1.0),
                "param {idx}: analytic {g} vs fd {fd}"
            );
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let dims = [4, 6, 1];
        let ffn = make(&dims, 7);
        let mut rng = stream(98, SeedStream::Custom(2));
        let input = hf_tensor::init::normal_vec(4, 1.0, &mut rng);

        let mut cache = FfnCache::for_ffn(&ffn);
        let logit = ffn.forward(&input, &mut cache);
        let mut grads = ffn.zeros_like();
        let mut d_input = vec![0.0; 4];
        ffn.backward(
            bce_with_logits_grad(logit, 0.0),
            &mut cache,
            &mut grads,
            &mut d_input,
        );

        let eps = 1e-2;
        for i in 0..4 {
            let mut plus = input.clone();
            plus[i] += eps;
            let mut minus = input.clone();
            minus[i] -= eps;
            let lp = bce_with_logits(ffn.forward(&plus, &mut cache), 0.0);
            let lm = bce_with_logits(ffn.forward(&minus, &mut cache), 0.0);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - d_input[i]).abs() < 5e-3 * fd.abs().max(1.0),
                "input {i}: analytic {} vs fd {fd}",
                d_input[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        // Learn XOR-ish separability: y = 1 iff x0 > x1.
        let ffn = make(&[2, 8, 1], 8);
        let mut model = ffn;
        let mut cache = FfnCache::for_ffn(&model);
        let mut rng = stream(55, SeedStream::Custom(3));
        let samples: Vec<([f32; 2], f32)> = (0..200)
            .map(|_| {
                let x: [f32; 2] = [rng.gen::<f32>() * 2.0 - 1.0, rng.gen::<f32>() * 2.0 - 1.0];
                let y = if x[0] > x[1] { 1.0 } else { 0.0 };
                (x, y)
            })
            .collect();

        let loss_of = |m: &Ffn, c: &mut FfnCache| -> f32 {
            samples
                .iter()
                .map(|(x, y)| bce_with_logits(m.forward(x, c), *y))
                .sum::<f32>()
                / samples.len() as f32
        };
        let before = loss_of(&model, &mut cache);
        for _ in 0..60 {
            let mut grads = model.zeros_like();
            let mut d_input = [0.0_f32; 2];
            for (x, y) in &samples {
                let logit = model.forward(x, &mut cache);
                model_backward(&model, logit, *y, &mut cache, &mut grads, &mut d_input);
            }
            model.add_scaled(-0.5 / samples.len() as f32, &grads);
        }
        let after = loss_of(&model, &mut cache);
        assert!(after < before * 0.7, "before {before}, after {after}");
    }

    fn model_backward(
        model: &Ffn,
        logit: f32,
        y: f32,
        cache: &mut FfnCache,
        grads: &mut Ffn,
        d_input: &mut [f32; 2],
    ) {
        model.backward(bce_with_logits_grad(logit, y), cache, grads, d_input);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let ffn = make(&[3, 1], 9);
        let mut cache = FfnCache::for_ffn(&ffn);
        let _ = ffn.forward(&[1.0, 2.0], &mut cache);
    }
}
