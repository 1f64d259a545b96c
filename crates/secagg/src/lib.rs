//! # hf_secagg
//!
//! Dropout-robust pairwise-masked secure aggregation for the HeteFedRec
//! upload path (DESIGN.md §10).
//!
//! The server only ever consumes the **sum** of client deltas (Eq. 8/10
//! of the paper), which is exactly the shape pairwise masking protects:
//! each client quantizes its delta into a u64 additive ring
//! ([`quant`]), derives one cancelling mask per peer from the
//! purpose-keyed RNG streams ([`mask`]), and uploads a blind vector the
//! server can only use in aggregate. Key agreement is a toy-parameter
//! Diffie–Hellman exchange ([`dh`]), and every secret is escrowed as
//! Shamir t-of-n shares across the member's peers ([`shamir`]) so the
//! group survives mid-round dropout: survivors reveal the dropped
//! member's shares and the server strips its orphaned masks
//! ([`group`]). Wire shapes for both message kinds live in [`wire`].
//!
//! Everything here is deterministic given the session seed, fully
//! serializable for checkpointing, and exact: ring arithmetic wraps, so
//! the unmasked aggregate is bit-identical to the plaintext quantized
//! sum regardless of thread count or summation order.

#![warn(missing_docs)]

pub mod dh;
pub mod group;
pub mod mask;
pub mod quant;
pub mod shamir;
pub mod wire;

pub use dh::{keypair, modpow, shared_secret, KeyPair, DH_GENERATOR, DH_PRIME};
pub use group::{PreparedGroup, RecoveryError};
pub use mask::{apply_pair_mask, mask_words, BandLayout, PayloadLayout};
pub use quant::{QuantError, Quantizer, MAX_SCALE_BITS};
pub use shamir::{reconstruct_secret, split_secret, SeedShare, ShamirError};
pub use wire::{MaskedUpload, ShareBundle};
