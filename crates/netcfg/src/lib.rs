//! Network configuration substrate for RealConfig: a Cisco-IOS
//! flavoured configuration language (AST, parser, printer), topology
//! and configuration generators, high-level change operations, line
//! diffs, and the lowering pass that turns configurations into the
//! input relations (facts) consumed by the routing engine.
//!
//! # From text to facts
//!
//! ```
//! use rc_netcfg::parser::parse_config;
//! use rc_netcfg::facts::{lower, Registry};
//!
//! let text = "\
//! hostname r1
//! interface eth0
//!  ip address 10.0.0.1 255.255.255.252
//!  ip ospf cost 5
//! router ospf 1
//!  network 10.0.0.0/8 area 0
//! ";
//! let cfg = parse_config(text).unwrap();
//! let mut configs = std::collections::BTreeMap::new();
//! configs.insert(cfg.hostname.clone(), cfg);
//! let mut reg = Registry::new();
//! let lowered = lower(&configs, &mut reg);
//! assert!(lowered.warnings.is_empty());
//! assert!(!lowered.facts.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod change;
pub mod facts;
pub mod gen;
pub mod linediff;
pub mod parser;
pub mod printer;
pub mod topology;
pub mod types;

pub use ast::DeviceConfig;
pub use change::{ChangeOp, ChangeSet};
pub use facts::{fact_delta, lower, Fact, LowerDelta, Lowered, Lowering, Registry, Warning};
pub use types::{IfaceId, Ip, NodeId, Port, Prefix, Proto};
