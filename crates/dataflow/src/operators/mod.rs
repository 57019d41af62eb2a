//! Operator implementations.
//!
//! Operators fall into three groups:
//!
//! * **stateless / linear**: `map`, `filter`, `flat_map`, `negate`,
//!   `concat` — differences pass straight through;
//! * **stateful**: `join` and `reduce` keep full keyed difference
//!   traces so they can emit *corrections* when inputs change;
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
