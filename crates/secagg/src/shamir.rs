//! Shamir t-of-n secret sharing over GF(256), applied bytewise.
//!
//! An 8-byte secret is split into `n` shares such that any `t` of them
//! reconstruct it exactly and any `t − 1` reveal nothing. Each byte of
//! the secret is the constant term of an independent random polynomial
//! of degree `t − 1` over GF(256) (AES polynomial `0x11b`); share `j`
//! is the polynomial evaluated at `x = j`.
//!
//! This is the escrow layer of dropout recovery: a client splits its
//! key-agreement secret across its peers before uploading, so the
//! survivors can hand the server enough shares to reconstruct the
//! secret of a client that vanished mid-round.

use std::fmt;

/// Errors from share reconstruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShamirError {
    /// Fewer distinct shares than the threshold.
    TooFewShares {
        /// Shares supplied.
        have: usize,
        /// Threshold required.
        need: usize,
    },
    /// Two shares claim the same evaluation point.
    DuplicateX {
        /// The repeated x-coordinate.
        x: u8,
    },
    /// Invalid split parameters (`t == 0`, `t > n`, or `n > 255`).
    BadParams {
        /// Requested share count.
        n: usize,
        /// Requested threshold.
        t: usize,
    },
}

impl fmt::Display for ShamirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShamirError::TooFewShares { have, need } => {
                write!(f, "need {need} shares to reconstruct, have {have}")
            }
            ShamirError::DuplicateX { x } => write!(f, "duplicate share point x={x}"),
            ShamirError::BadParams { n, t } => {
                write!(f, "invalid sharing parameters t={t} of n={n}")
            }
        }
    }
}

impl std::error::Error for ShamirError {}

/// One share of an 8-byte secret: the evaluation point plus one GF(256)
/// polynomial evaluation per secret byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedShare {
    /// Evaluation point, never zero (x = 0 is the secret itself).
    pub x: u8,
    /// Per-byte polynomial evaluations at `x`.
    pub bytes: [u8; 8],
}

/// GF(256) multiply, AES reduction polynomial `x^8 + x^4 + x^3 + x + 1`.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 == 1 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// GF(256) inverse via `a^254` (Fermat); `gf_inv(0)` is a logic error.
fn gf_inv(a: u8) -> u8 {
    debug_assert!(a != 0, "zero has no inverse in GF(256)");
    // 254 = 0b1111_1110: square-and-multiply.
    let mut acc = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = gf_mul(acc, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Splits `secret` into `n` shares with threshold `t`, drawing polynomial
/// coefficients from `rng`.
pub fn split_secret(
    secret: u64,
    n: usize,
    t: usize,
    rng: &mut impl hf_tensor::rng::Rng,
) -> Result<Vec<SeedShare>, ShamirError> {
    if t == 0 || t > n || n > 255 {
        return Err(ShamirError::BadParams { n, t });
    }
    let secret_bytes = secret.to_le_bytes();
    // coeffs[b] = [c1..c_{t-1}] for secret byte b (c0 is the byte itself).
    let coeffs: Vec<Vec<u8>> = (0..8)
        .map(|_| (1..t).map(|_| rng.gen_range(0..256u32) as u8).collect())
        .collect();
    let mut shares = Vec::with_capacity(n);
    for j in 1..=n {
        let x = j as u8;
        let mut bytes = [0u8; 8];
        for (b, out) in bytes.iter_mut().enumerate() {
            // Horner evaluation of c0 + c1 x + ... + c_{t-1} x^{t-1}.
            let mut acc = 0u8;
            for &c in coeffs[b].iter().rev() {
                acc = gf_mul(acc, x) ^ c;
            }
            *out = gf_mul(acc, x) ^ secret_bytes[b];
        }
        shares.push(SeedShare { x, bytes });
    }
    Ok(shares)
}

/// Reconstructs the secret from at least `t` distinct shares via Lagrange
/// interpolation at `x = 0` (only the first `t` shares are consumed).
pub fn reconstruct_secret(shares: &[SeedShare], t: usize) -> Result<u64, ShamirError> {
    if shares.len() < t || t == 0 {
        return Err(ShamirError::TooFewShares {
            have: shares.len(),
            need: t.max(1),
        });
    }
    let used = &shares[..t];
    for (i, s) in used.iter().enumerate() {
        if s.x == 0 {
            return Err(ShamirError::DuplicateX { x: 0 });
        }
        if used[..i].iter().any(|o| o.x == s.x) {
            return Err(ShamirError::DuplicateX { x: s.x });
        }
    }
    let mut secret_bytes = [0u8; 8];
    for (i, si) in used.iter().enumerate() {
        // Lagrange basis at 0: Π_{j≠i} x_j / (x_j − x_i); in GF(2^8)
        // subtraction is XOR.
        let mut basis = 1u8;
        for (j, sj) in used.iter().enumerate() {
            if i != j {
                basis = gf_mul(basis, gf_mul(sj.x, gf_inv(sj.x ^ si.x)));
            }
        }
        for (b, out) in secret_bytes.iter_mut().enumerate() {
            *out ^= gf_mul(si.bytes[b], basis);
        }
    }
    Ok(u64::from_le_bytes(secret_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_tensor::rng::{stream, Rng, SeedStream};

    #[test]
    fn gf_mul_matches_known_values() {
        // AES reference: 0x57 * 0x83 = 0xc1.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0, 0x42), 0);
        assert_eq!(gf_mul(1, 0x42), 0x42);
    }

    #[test]
    fn gf_inv_is_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn any_t_shares_reconstruct_fewer_fail() {
        let mut rng = stream(5, SeedStream::Custom(90));
        let secret: u64 = rng.gen();
        let shares = split_secret(secret, 7, 4, &mut rng).unwrap();
        // Every contiguous window of 4 works; so does a scrambled pick.
        for w in shares.windows(4) {
            assert_eq!(reconstruct_secret(w, 4).unwrap(), secret);
        }
        let pick = [shares[6], shares[0], shares[3], shares[5]];
        assert_eq!(reconstruct_secret(&pick, 4).unwrap(), secret);
        assert!(matches!(
            reconstruct_secret(&shares[..3], 4),
            Err(ShamirError::TooFewShares { have: 3, need: 4 })
        ));
    }

    #[test]
    fn duplicate_points_are_rejected() {
        let mut rng = stream(6, SeedStream::Custom(91));
        let shares = split_secret(123, 5, 2, &mut rng).unwrap();
        let dup = [shares[1], shares[1]];
        assert!(matches!(
            reconstruct_secret(&dup, 2),
            Err(ShamirError::DuplicateX { .. })
        ));
    }

    #[test]
    fn bad_params_are_rejected() {
        let mut rng = stream(7, SeedStream::Custom(92));
        assert!(split_secret(1, 3, 0, &mut rng).is_err());
        assert!(split_secret(1, 3, 4, &mut rng).is_err());
        assert!(split_secret(1, 256, 2, &mut rng).is_err());
    }
}
