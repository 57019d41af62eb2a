//! Value types of the equivalence-class data plane model.

use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, NodeId, Prefix};

/// An equivalence class of packets: all packets in one EC receive the
/// same treatment at every element of the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EcId(pub u32);

/// Identifies one match-action element of the data plane model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ElementKey {
    /// A device's forwarding table (longest prefix match on dst IP).
    Forward(NodeId),
    /// An ACL bound to an interface in a direction (first match wins).
    Filter(NodeId, IfaceId, Dir),
}

/// The action of a logical port. ECMP groups are a single logical port
/// whose action carries the sorted set of output interfaces, per the
/// paper's "logical ports encode a specific forwarding action".
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PortAction {
    /// Forward out of these interfaces (sorted, nonempty).
    Forward(Vec<IfaceId>),
    /// Deliver onto the connected subnets of these interfaces
    /// (connected routes — the packet terminates at this device).
    Deliver(Vec<IfaceId>),
    /// Discard.
    Drop,
    /// Filter element: pass the packet on.
    Permit,
    /// Filter element: discard the packet.
    Deny,
}

impl PortAction {
    /// Build a (canonical, sorted) ECMP forward action.
    pub fn forward(mut ifaces: Vec<IfaceId>) -> Self {
        assert!(!ifaces.is_empty(), "empty ECMP group");
        ifaces.sort_unstable();
        ifaces.dedup();
        PortAction::Forward(ifaces)
    }

    /// Build a (canonical, sorted) local-delivery action.
    pub fn deliver(mut ifaces: Vec<IfaceId>) -> Self {
        assert!(!ifaces.is_empty(), "empty delivery group");
        ifaces.sort_unstable();
        ifaces.dedup();
        PortAction::Deliver(ifaces)
    }
}

/// What a rule matches. Compiled to a BDD inside the model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RuleMatch {
    /// Destination-prefix match (FIB rules).
    DstPrefix(Prefix),
    /// Five-tuple-ish ACL match.
    Acl { proto: Option<u8>, src: Prefix, dst: Prefix, dst_ports: Option<(u16, u16)> },
}

/// A rule of the data plane model.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModelRule {
    pub element: ElementKey,
    /// Higher wins. FIB rules use the prefix length; ACL rules use
    /// `u32::MAX − seq`.
    pub priority: u32,
    pub rule_match: RuleMatch,
    pub action: PortAction,
}

/// One data plane rule change.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RuleUpdate {
    Insert(ModelRule),
    Remove(ModelRule),
}

impl RuleUpdate {
    pub fn rule(&self) -> &ModelRule {
        match self {
            RuleUpdate::Insert(r) | RuleUpdate::Remove(r) => r,
        }
    }

    pub fn is_insert(&self) -> bool {
        matches!(self, RuleUpdate::Insert(_))
    }
}

/// Order in which a batch of rule updates is applied (paper Table 3:
/// the order materially changes EC churn and update time).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateOrder {
    /// Apply all insertions, then all deletions (`+,-` in the paper).
    InsertFirst,
    /// Apply all deletions, then all insertions (`-,+` in the paper).
    DeleteFirst,
    /// Apply in the order given.
    AsGiven,
}

impl UpdateOrder {
    /// Short display label matching the paper's notation.
    pub fn label(self) -> &'static str {
        match self {
            UpdateOrder::InsertFirst => "+,-",
            UpdateOrder::DeleteFirst => "-,+",
            UpdateOrder::AsGiven => "as-given",
        }
    }

    /// Parse a CLI/bench spelling of an order. Accepts the paper's
    /// `+,-` / `-,+` notation and the word forms.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "+,-" | "insert-first" => Some(UpdateOrder::InsertFirst),
            "-,+" | "delete-first" => Some(UpdateOrder::DeleteFirst),
            "as-given" => Some(UpdateOrder::AsGiven),
            _ => None,
        }
    }
}

/// An EC whose treatment changed somewhere during a batch: net change
/// from the pre-batch port action to the post-batch one.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct AffectedEc {
    pub ec: EcId,
    pub element: ElementKey,
    pub old: PortAction,
    pub new: PortAction,
}

/// Summary of one batch application.
///
/// Split-vs-affected distinction: `ec_splits`/`ec_moves`/`splits` are
/// *churn* measures — they count every event during the batch,
/// including splits whose child EC ends the batch on its pre-split
/// action and moves that are later undone (e.g. a rule inserted and
/// removed within one batch). Only `affected` — the net set — feeds
/// incremental policy re-checking; a batch can split ECs and still
/// report `affected` empty, in which case no policy work is required
/// beyond replaying `splits` and `merges` on EC-keyed state.
///
/// Ids: a batch splits (appending children), then merges. `splits` names
/// pre-merge ids, and `affected` the ECs after the merges.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BatchSummary {
    /// Net port changes per (EC, element), excluding transients that
    /// returned to their original port, sorted.
    /// Entries are per pre-merge EC: an absorbed EC's entries name its
    /// survivor, so an (EC, element) pair can repeat.
    pub affected: Vec<AffectedEc>,
    /// EC move *events*, including transient moves (this is the "#ECs"
    /// churn measure that differs between update orders in Table 3).
    pub ec_moves: usize,
    /// Number of EC splits performed, including splits whose child ends
    /// the batch with an unchanged action (see the struct docs).
    pub ec_splits: usize,
    /// `(parent, child)` pairs for every split, in order.
    pub splits: Vec<(EcId, EcId)>,
    /// `(survivor, absorbed)` pairs, in the order performed, each in ids
    /// as they are when it runs: the absorbed EC's packets join the
    /// survivor (the lower id), then the highest id takes the absorbed
    /// one (a swap-remove).
    pub merges: Vec<(EcId, EcId)>,
    /// Rule updates applied.
    pub rules_applied: usize,
}
