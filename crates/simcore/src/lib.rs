//! Deterministic discrete-event simulation substrate.
//!
//! This crate provides the domain-agnostic machinery that the rest of the
//! workspace builds on:
//!
//! * [`time`] — a strongly-typed simulation clock ([`SimTime`]) measured in
//!   seconds, with helpers for the units the paper uses (minutes, hours).
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with strict
//!   FIFO tie-breaking so that runs are bit-for-bit reproducible, and one
//!   re-armable wake slot per server.
//! * [`rng`] — a self-contained xoshiro256\*\* PRNG ([`Rng`]) seeded via
//!   SplitMix64. We implement the generator ourselves (rather than pulling
//!   in `rand`) so that experiment outputs are stable across platforms and
//!   dependency upgrades.
//! * [`dist`] — the distributions the paper's workload needs: exponential
//!   inter-arrival times, uniform video lengths, and the Zipf-like
//!   popularity law `p_i = c / i^(1-θ)`, sampled in O(1) via Vose's alias
//!   method.
//! * [`stats`] — streaming (Welford) statistics and trial summaries.
//!
//! Everything here is deterministic given a seed; no global state, no
//! wall-clock access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{AliasTable, Exponential, UniformRange, ZipfLike};
pub use event::{EventEntry, EventQueue, Popped};
pub use rng::Rng;
pub use stats::{OnlineStats, Summary};
pub use time::SimTime;
