//! **RealConfig** — incremental network configuration verification.
//!
//! A Rust reproduction of the HotNets '20 paper "Incremental Network
//! Configuration Verification": instead of re-verifying a network from
//! scratch after every configuration change, RealConfig chains three
//! incremental stages (paper Figure 1):
//!
//! 1. an **incremental data plane generator** — routing protocol
//!    semantics (OSPF, eBGP, statics, ACLs, redistribution) written
//!    once as a differential dataflow ([`rc_routing`] on
//!    [`rc_dataflow`]), turning configuration-fact deltas into FIB and
//!    filter rule deltas;
//! 2. an **incremental data plane model updater** — a batch-mode
//!    APKeep-style equivalence-class model ([`rc_apkeep`]) that turns
//!    rule deltas into affected-EC reports;
//! 3. an **incremental policy checker** ([`rc_policy`]) that re-checks
//!    only the policies registered on affected packets and reports
//!    newly violated and newly satisfied policies.
//!
//! # Quickstart
//!
//! ```
//! use rc_netcfg::{gen, topology, ChangeSet};
//! use realconfig::RealConfig;
//!
//! // A 4-node OSPF ring.
//! let configs = gen::build_configs(&topology::ring(4), gen::ProtocolChoice::Ospf);
//! let (mut rc, full) = RealConfig::new(configs).unwrap();
//! assert!(full.fib_entries > 0);
//!
//! // "Traffic from r000 must reach r002's subnet."
//! let policy = rc
//!     .require_reachability("r000", "r002", topology::host_prefix(2))
//!     .unwrap();
//! rc.recheck_policies();
//! assert!(rc.is_satisfied(policy));
//!
//! // Verify a link failure incrementally — sub-stage timings and
//! // affected counts come back in the report.
//! let report = rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).unwrap();
//! assert!(report.rules_inserted + report.rules_removed > 0);
//! assert!(rc.is_satisfied(policy), "the ring reroutes around the failure");
//!
//! // A second failure cuts the remaining path to r002: the policy
//! // breaks, and the report says so.
//! let report = rc.apply_change(&ChangeSet::link_failure("r003", "eth0")).unwrap();
//! assert_eq!(report.newly_violated, vec![policy.0]);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod convert;
mod report;
mod trace;
mod verifier;

pub use report::{ChangeReport, FullReport};
pub use trace::{HopAction, PacketTrace, TraceHop};
pub use verifier::{
    full_dataplane_baseline, full_dataplane_realconfig, ConfigDelta, Error, OnFailure,
    RealConfig, RestoreReport, RestoreSource, VerifierOptions, DEFAULT_AUTO_COMPACT,
};

// Packet type used by `RealConfig::trace_packet`.
pub use rc_bdd::pkt::Packet;

// FIB entry type returned by `RealConfig::fib`.
pub use rc_routing::route::FibEntry;

// Re-export the pieces a downstream user needs to drive the verifier.
// `set_threads`/`threads` are the process-global worker-count knob for
// the parallel phases (per-verifier override: `VerifierOptions::threads`).
pub use rc_bdd::{default_backend, set_default_backend, PredKind};
pub use rc_par::{set_threads, threads};
pub use rc_apkeep::UpdateOrder;
pub use rc_telemetry::{MetricsSnapshot, Telemetry};
pub use rc_netcfg::change::{AclDir, ChangeOp, ChangeSet, RedistTarget};
pub use rc_netcfg::types::{IfaceId, Ip, NodeId, Port, Prefix, Proto};
pub use rc_policy::{PacketClass, Policy, PolicyId};
