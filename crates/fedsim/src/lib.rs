//! # hf-fedsim
//!
//! Federated-learning protocol substrate: everything about *how* clients
//! and the server exchange state, independent of *what* the recommendation
//! algorithm does with it.
//!
//! * [`transport`] — update payloads (sparse item-embedding rows + flat
//!   predictor deltas) with a binary wire format and exact byte
//!   accounting.
//! * [`scheduler`] — the paper's round structure (§V-D): at each epoch the
//!   server shuffles the client queue and traverses it in rounds of 256
//!   selected clients.
//! * [`comm`] — communication-cost bookkeeping per client tier, the
//!   quantities behind Table III.
//! * [`parallel`] — re-export of [`hf_tensor::parallel`], the work-stealing
//!   scoped worker pool running independent client computations within a
//!   round (it lives beside `rng` so `hf_dataset` and `hf_serve` reach it
//!   without this crate).
//! * [`faults`] — seeded client-failure injection (dropped updates) and
//!   churn profiles for robustness experiments beyond the paper's happy
//!   path.
//! * [`events`] — logical-clock event scheduling (latency profiles, the
//!   `(time, client)`-ordered arrival queue, dispatch bookkeeping) behind
//!   the asynchronous training mode.

#![warn(missing_docs)]

pub mod comm;
pub mod events;
pub mod faults;
pub mod scheduler;
pub mod transport;

// Kept under this path for its callers (the frozen `benchmark/` names it).
pub use hf_tensor::parallel;

pub use comm::{CommLedger, RoundCost};
pub use events::{EventScheduler, LatencyProfile, PendingArrival};
pub use faults::{ChurnProfile, FaultInjector};
pub use scheduler::RoundScheduler;
pub use transport::{ClientUpdate, SparseRowUpdate};
