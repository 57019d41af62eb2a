//! A batch-mode, equivalence-class data plane model — the paper's
//! "incremental data plane model updater", built in the style of APKeep
//! (NSDI '20) and extended with the batch mode RealConfig needs.
//!
//! Given a batch of rule insertions/deletions (produced from the FIB
//! and filter deltas of the incremental data plane generator), the
//! model updates a global partition of the packet space into
//! equivalence classes (ECs) and reports which ECs changed behaviour,
//! with their old and new port actions. The order in which a batch is
//! applied ([`UpdateOrder`]) changes EC churn, reproducing the paper's
//! Table 3 ordering effect: deletion-first routes packets through the
//! drop port before they reach their new port.
//!
//! ```
//! use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
//! use rc_netcfg::types::{IfaceId, NodeId};
//!
//! let mut model = ApkModel::new();
//! let rule = ModelRule {
//!     element: ElementKey::Forward(NodeId(0)),
//!     priority: 24,
//!     rule_match: RuleMatch::DstPrefix("10.1.1.0/24".parse().unwrap()),
//!     action: PortAction::forward(vec![IfaceId(3)]),
//! };
//! let summary = model.apply_batch(vec![RuleUpdate::Insert(rule)], UpdateOrder::InsertFirst);
//! // The /24 was carved out of the initial full-space EC and now
//! // forwards; the rest of the space still drops.
//! assert_eq!(model.num_ecs(), 2);
//! assert_eq!(summary.affected.len(), 1);
//! assert_eq!(summary.affected[0].new, PortAction::forward(vec![IfaceId(3)]));
//! ```

#![forbid(unsafe_code)]

mod model;
mod types;

pub use model::{ApkModel, EcView};
pub use types::{
    AffectedEc, BatchSummary, EcId, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate,
    UpdateOrder,
};
