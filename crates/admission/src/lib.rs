//! Admission control for the distribution controller.
//!
//! "When a request to view a particular video arrives in the system, the
//! distribution controller must decide whether or not to accept the
//! incoming request … it must be allocated to a particular server within
//! the cluster which holds a replica of the requested video and which also
//! has the available resources to begin transmission immediately" (§2).
//!
//! This crate implements that decision:
//!
//! * [`policy`] — request *assignment* among eligible replica holders
//!   (least-loaded, as in the paper, plus ablation alternatives) and the
//!   *migration* policy knobs (hops per request, hand-off latency, victim
//!   selection).
//! * [`controller`] — the [`Controller`]: direct placement when a holder
//!   has a free slot, otherwise **dynamic request migration** (§3.1): move
//!   one active stream from a full holder to another server that stores its
//!   video and has capacity, freeing the slot for the new arrival. The
//!   migration chain length is fixed at one, exactly as in the paper's
//!   experiments (§4.2).
//! * [`replication`] — the *dynamic replication* alternative §3.1 alludes
//!   to ("more resource intensive solutions perform dynamic replication of
//!   the requested object"): background replica copies that consume real
//!   server bandwidth, for head-to-head comparison with DRM.
//! * [`waitlist`] — an optional FIFO wait queue with patience bounds (the
//!   paper rejects outright; real front-ends let viewers wait a little).
//! * [`stats`] — acceptance/rejection/migration accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod policy;
pub mod replication;
pub mod stats;
pub mod waitlist;

pub use controller::{Admission, ChainPlan, Controller, Evacuation, TouchedServers};
pub use policy::{AssignmentPolicy, EvacuationPolicy, MigrationPolicy, VictimSelection};
pub use replication::{
    CopyLaunch, CopySource, ReplicationManager, ReplicationSpec, ReplicationStats,
};
pub use stats::AdmissionStats;
pub use waitlist::{ServeOutcome, ServedWaiter, Waitlist, WaitlistSpec, WaitlistStats};
