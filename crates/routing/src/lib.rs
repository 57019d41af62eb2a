//! Control-plane models for RealConfig.
//!
//! Two implementations of identical routing semantics:
//!
//! * [`engine::RoutingEngine`] — the paper's incremental data plane
//!   generator: protocol behaviour written once as a differential
//!   dataflow; any configuration change is just a fact delta.
//! * [`baseline`] — a from-scratch simulator with custom algorithms
//!   (Dijkstra per prefix, synchronous path vector), standing in for Batfish as
//!   the non-incremental comparison point and serving as the
//!   differential-testing oracle.
//!
//! ```
//! use rc_netcfg::{gen, topology, facts};
//! use rc_routing::engine::RoutingEngine;
//!
//! let topo = topology::ring(4);
//! let cfgs = gen::build_configs(&topo, gen::ProtocolChoice::Ospf);
//! let mut reg = facts::Registry::new();
//! let lowered = facts::lower(&cfgs, &mut reg);
//!
//! let mut engine = RoutingEngine::new();
//! engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1))).unwrap();
//! let fib = engine.fib();
//! assert!(!fib.is_empty());
//!
//! // The from-scratch baseline computes the same data plane.
//! let oracle = rc_routing::baseline::compute(&lowered.facts).unwrap();
//! assert_eq!(fib, oracle.fib);
//! ```

pub mod baseline;
pub mod engine;
pub mod route;

pub use engine::{ApplyStats, RoutingEngine};
pub use route::{BgpRoute, FibAction, FibDelta, FibEntry, FilterRule, PathVec, RibValue};
