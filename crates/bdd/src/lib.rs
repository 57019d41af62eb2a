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
//! * binary operations go through a memoized `apply`, negation and
//!   if-then-else have their own caches;
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
//! let not_ab = bdd.not(ab);
//! let de_morgan = {
//!     let na = bdd.not(a);
//!     let nb = bdd.not(b);
//!     bdd.or(na, nb)
//! };
//! assert_eq!(not_ab, de_morgan);
//! assert_eq!(bdd.sat_count(ab, 2), 1.0);
//! ```

#![forbid(unsafe_code)]

mod analysis;
mod manager;
mod node;
pub mod pkt;

pub use manager::Bdd;
pub use node::{Node, Ref, Var};
pub use pkt::Cover;
