//! Operator implementations.
//!
//! Operators fall into three groups:
//!
//! * **stateless / linear**: `map`, `filter`, `flat_map`, `negate`,
//!   `concat` — differences pass straight through;
//! * **stateful**: `join` and `reduce` keep keyed state so they can
//!   emit *corrections* when inputs change. Which state is fixed by
//!   where the operator is built. Inside `iterate`, times are partially
//!   ordered and a correction can land at a later iteration, so the
//!   operator keeps each key's full difference history in a two-layer
//!   trace (`crate::trace`). At top level every record's time is the
//!   current epoch's and each node is stepped once per epoch, so a key's
//!   history is only ever read whole: the operator keeps each live key's
//!   accumulation and drops the key when it empties, so its state is
//!   exactly the live collection;
//! * **structural**: input, output, and the `iterate` scope machinery
//!   (feedback delay, egress, and the scope driver itself).

pub(crate) mod concat;
pub(crate) mod delay;
pub(crate) mod egress;
pub(crate) mod input;
pub(crate) mod join;
pub(crate) mod linear;
pub(crate) mod output;
pub(crate) mod reduce;
pub(crate) mod scope;

pub use input::InputHandle;
pub use output::OutputHandle;
