//! NCF scores a user–item pair as `FFN([u, v])`: local training runs
//! [`Ffn::forward`]/[`Ffn::backward`] on the concatenation, whose input
//! gradient's halves are `∂u` and `∂v`, and serving splits the first
//! layer in [`SplitNcf`].

use crate::{paper_predictor_dims, Ffn, FfnCache, SplitNcf};
use hf_tensor::ops::{bce_with_logits, bce_with_logits_grad};
use hf_tensor::rng::{stream, SeedStream};

fn predictor(dim: usize, seed: u64) -> Ffn {
    let mut rng = stream(seed, SeedStream::ParamInit);
    Ffn::new(&paper_predictor_dims(dim), &mut rng)
}

fn score(ffn: &Ffn, u: &[f32], v: &[f32], cache: &mut FfnCache) -> f32 {
    ffn.forward(&[u, v].concat(), cache)
}

#[test]
fn forward_is_deterministic() {
    let ffn = predictor(8, 1);
    let mut cache = FfnCache::for_ffn(&ffn);
    let u = vec![0.1; 8];
    let v = vec![-0.2; 8];
    assert_eq!(
        score(&ffn, &u, &v, &mut cache),
        score(&ffn, &u, &v, &mut cache)
    );
}

#[test]
fn embedding_gradients_match_finite_differences() {
    let ffn = predictor(4, 2);
    let mut cache = FfnCache::for_ffn(&ffn);
    let mut rng = stream(50, SeedStream::Custom(4));
    let u = hf_tensor::init::normal_vec(4, 1.0, &mut rng);
    let v = hf_tensor::init::normal_vec(4, 1.0, &mut rng);
    let y = 1.0;

    let logit = score(&ffn, &u, &v, &mut cache);
    let mut tg = ffn.zeros_like();
    let mut d_input = vec![0.0; 8];
    ffn.backward(
        bce_with_logits_grad(logit, y),
        &mut cache,
        &mut tg,
        &mut d_input,
    );
    let (du, dv) = d_input.split_at(4);

    let eps = 1e-2;
    for i in 0..4 {
        let mut up = u.clone();
        up[i] += eps;
        let mut um = u.clone();
        um[i] -= eps;
        let lp = bce_with_logits(score(&ffn, &up, &v, &mut cache), y);
        let lm = bce_with_logits(score(&ffn, &um, &v, &mut cache), y);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - du[i]).abs() < 5e-3 * fd.abs().max(1.0),
            "du[{i}] {} vs {fd}",
            du[i]
        );

        let mut vp = v.clone();
        vp[i] += eps;
        let mut vm = v.clone();
        vm[i] -= eps;
        let lp = bce_with_logits(score(&ffn, &u, &vp, &mut cache), y);
        let lm = bce_with_logits(score(&ffn, &u, &vm, &mut cache), y);
        let fd = (lp - lm) / (2.0 * eps);
        assert!(
            (fd - dv[i]).abs() < 5e-3 * fd.abs().max(1.0),
            "dv[{i}] {} vs {fd}",
            dv[i]
        );
    }
}

#[test]
fn training_separates_positive_and_negative_items() {
    // One user, two items with opposite ground truth — a few gradient
    // steps must drive the logits apart.
    let mut ffn = predictor(4, 3);
    let mut cache = FfnCache::for_ffn(&ffn);
    let mut u = vec![0.1, -0.1, 0.2, 0.05];
    let v_pos = vec![0.3, 0.1, -0.2, 0.4];
    let v_neg = vec![-0.1, 0.2, 0.3, -0.3];
    let mut d_input = vec![0.0; 8];

    for _ in 0..200 {
        let mut tg = ffn.zeros_like();
        for (v, y) in [(&v_pos, 1.0), (&v_neg, 0.0)] {
            let logit = score(&ffn, &u, v, &mut cache);
            ffn.backward(
                bce_with_logits_grad(logit, y),
                &mut cache,
                &mut tg,
                &mut d_input,
            );
            hf_tensor::ops::axpy_slice(&mut u, -0.1, &d_input[..4]);
        }
        ffn.add_scaled(-0.1, &tg);
    }
    let pos = score(&ffn, &u, &v_pos, &mut cache);
    let neg = score(&ffn, &u, &v_neg, &mut cache);
    assert!(pos > neg + 1.0, "pos {pos} vs neg {neg}");
}

#[test]
#[should_panic(expected = "input width mismatch")]
fn rejects_wrong_user_width() {
    let ffn = predictor(4, 4);
    let mut cache = FfnCache::for_ffn(&ffn);
    let _ = score(&ffn, &[0.0; 3], &[0.0; 4], &mut cache);
}

#[test]
#[should_panic(expected = "predictor width")]
fn from_ffn_checks_width() {
    let mut rng = stream(5, SeedStream::ParamInit);
    let ffn = Ffn::new(&[6, 4, 1], &mut rng);
    let _ = SplitNcf::from_ffn(4, &ffn);
}
