//! A single-threaded differential computation engine.
//!
//! This crate reimplements the essential capability RealConfig borrows
//! from Differential Dataflow / Differential Datalog: write a
//! computation **once** as a declarative dataflow over collections, and
//! the engine maintains every derived collection **incrementally** as
//! inputs change — including through fixpoint iteration, which is what
//! routing-protocol convergence compiles to.
//!
//! # Model
//!
//! A [`Collection<D>`] is a multiset of records evolving over *epochs*.
//! Every change is a `(data, time, diff)` difference; times are
//! two-dimensional [`Time`] values `(epoch, iteration)` ordered by the
//! product partial order. Stateful operators ([`Collection::join`],
//! [`Collection::reduce`]) inside `iterate` keep full difference traces
//! and emit corrections at time joins, which makes incremental updates
//! to iterative computations cost work proportional to what actually
//! changed — not to the size of the network. At top level, where every
//! time is an epoch, they keep only each key's accumulation.
//!
//! # Example: incremental reachability
//!
//! ```
//! use rc_dataflow::Dataflow;
//!
//! let mut df = Dataflow::new();
//! let (edges_in, edges) = df.input::<(u32, u32)>();
//! // reach = edges ∪ { (x, z) | (x, y) ∈ reach, (y, z) ∈ edges }
//! let reach = edges.iterate(|inner| {
//!     let step = inner
//!         .map(|(x, y)| (y, x))
//!         .join(&edges.map(|(y, z)| (y, z)))
//!         .map(|(_y, (x, z))| (x, z));
//!     inner.concat(&step).distinct()
//! });
//! let mut out = reach.output();
//!
//! edges_in.extend([(1, 2), (2, 3)]);
//! df.advance().unwrap();
//! out.drain();
//! assert!(out.contains(&(1, 3)));
//!
//! // Remove an edge: reachability is updated incrementally.
//! edges_in.remove((2, 3));
//! df.advance().unwrap();
//! out.drain();
//! assert!(!out.contains(&(1, 3)));
//! ```

#![forbid(unsafe_code)]

mod collection;
mod delta;
mod error;
mod graph;
mod operators;
mod time;
pub mod trace;
pub mod util;

pub use collection::{Collection, DEFAULT_MAX_ITERS};
pub use delta::{consolidate, consolidate_values, Data, Delta, Diff};
pub use error::EvalError;
pub use graph::{Dataflow, EpochStats, OpStats};
pub use operators::{InputHandle, OutputHandle};
pub use time::Time;
