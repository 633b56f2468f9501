//! Cluster model and video placement.
//!
//! The paper's server cluster (§2) is a set of independent data sources —
//! each with its own disk and network bandwidth, **no shared storage** —
//! fronted by a distribution controller. This crate models the static side
//! of that architecture:
//!
//! * [`server`] — per-server specs (bandwidth, disk) and the key derived
//!   quantity, the **server-to-view-bandwidth ratio (SVBR)**: how many
//!   simultaneous streams one server can sustain under minimum-flow
//!   admission.
//! * [`cluster`] — homogeneous and heterogeneous cluster builders (the
//!   heterogeneity study of §4.6 varies bandwidth or storage spread at a
//!   fixed total).
//! * [`placement`] — the replica-placement strategies of §3.2/§4.4: *even*
//!   (popularity-oblivious), *predictive* (popularity-proportional), and
//!   *partial-predictive* (even plus a few extra copies of the head), all
//!   producing a validated [`placement::ReplicaMap`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod placement;
pub mod server;

pub use cluster::ClusterSpec;
pub use placement::{PlacementStrategy, ReplicaMap};
pub use server::{ServerId, ServerSpec};
