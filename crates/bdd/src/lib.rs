//! Reduced ordered binary decision diagrams (ROBDDs) for packet-space
//! predicates.
//!
//! This crate is the predicate substrate for the APKeep-style data plane
//! model used by RealConfig: every match condition (an IP prefix, an ACL
//! clause, a port range) is compiled to a BDD, and equivalence classes of
//! packets are BDDs that partition the header space.
//!
//! The implementation is a classic hash-consed ROBDD manager:
//!
//! * nodes are stored in an arena and deduplicated, so semantic equality
//!   is pointer ([`Ref`]) equality;
//! * the binary operations (`and`, `or`, `diff`) go through one
//!   memoized `apply`, the manager's only op cache;
//! * variables are `u32` indices; the variable with the smallest index is
//!   tested closest to the root.
//!
//! There is no garbage collection: RealConfig's workloads allocate a few
//! hundred thousand nodes at most, and the manager is dropped wholesale
//! with the model. This keeps `Ref` a `Copy` integer and the hot paths
//! free of reference counting.
//!
//! # Example
//!
//! ```
//! use rc_bdd::Bdd;
//!
//! let mut bdd = Bdd::new();
//! let a = bdd.var(0);
//! let b = bdd.var(1);
//! let ab = bdd.and(a, b);
//! let a_only = bdd.diff(a, b);
//! // Hash-consing: equal functions are equal `Ref`s.
//! assert_eq!(bdd.or(ab, a_only), a);
//! assert!(bdd.subset(ab, a));
//! assert!(!bdd.intersects(ab, a_only));
//! ```

#![forbid(unsafe_code)]

mod manager;
mod node;
pub mod pkt;

pub use manager::Bdd;
pub use node::{Ref, Var};
pub use pkt::Cover;
