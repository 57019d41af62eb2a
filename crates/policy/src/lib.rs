//! Incremental network policy checking over an equivalence-class data
//! plane model.
//!
//! This is the third stage of the RealConfig pipeline: it consumes the
//! affected-EC reports of the [`rc_apkeep`] model and re-validates only
//! the policies registered on the packets that actually changed
//! behaviour. Supported policies: reachability, isolation, waypoint,
//! loop freedom, and blackhole freedom.

#![forbid(unsafe_code)]

pub mod checker;
pub mod walk;

pub use checker::{CheckReport, PacketClass, Policy, PolicyChecker, PolicyId};
pub use walk::{Cone, EcAnalysis, Forwarding, Topology, Walker};
