//! Conversion between the routing engine's FIB/filter deltas and the EC
//! model's rule updates.
//!
//! The routing engine reports FIB changes entry-by-entry (one entry per
//! ECMP leg); the EC model wants one logical rule per `(node, prefix)`
//! whose port action carries the whole ECMP group. This module
//! maintains the grouped view and emits replace-style rule updates.

use std::collections::BTreeMap;

use rc_apkeep::{ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate};
use rc_netcfg::types::{NodeId, Prefix};
use rc_routing::route::{FibAction, FibDelta, FilterRule};

/// Grouped FIB state: the current logical rule per `(node, prefix)`.
#[derive(Default)]
pub(crate) struct FibGrouper {
    current: BTreeMap<(NodeId, Prefix), PortAction>,
}

impl FibGrouper {
    /// Fold a FIB delta into the grouped view, emitting the rule
    /// updates that take the EC model from the old grouped state to the
    /// new one.
    pub fn convert(&mut self, delta: &FibDelta) -> Vec<RuleUpdate> {
        // Collect the (node, prefix) groups touched by this delta.
        let mut touched: BTreeMap<(NodeId, Prefix), (Vec<FibAction>, Vec<FibAction>)> =
            BTreeMap::new();
        for e in &delta.inserted {
            touched.entry((e.node, e.prefix)).or_default().0.push(e.action);
        }
        for e in &delta.removed {
            touched.entry((e.node, e.prefix)).or_default().1.push(e.action);
        }

        let mut updates = Vec::new();
        for ((node, prefix), (ins, rem)) in touched {
            let old = self.current.get(&(node, prefix)).cloned();
            let new = Self::regroup(old.as_ref(), &ins, &rem);
            if old == new {
                continue;
            }
            let mk = |action: PortAction| ModelRule {
                element: ElementKey::Forward(node),
                priority: prefix.len() as u32,
                rule_match: RuleMatch::DstPrefix(prefix),
                action,
            };
            if let Some(o) = old {
                updates.push(RuleUpdate::Remove(mk(o)));
                self.current.remove(&(node, prefix));
            }
            if let Some(n) = new {
                updates.push(RuleUpdate::Insert(mk(n.clone())));
                self.current.insert((node, prefix), n);
            }
        }
        updates
    }

    /// Apply per-entry changes to a grouped action. Forward legs,
    /// local-delivery legs and drop cannot mix for one `(node, prefix)`
    /// — admin-distance selection keeps a single protocol's entries.
    fn regroup(
        old: Option<&PortAction>,
        ins: &[FibAction],
        rem: &[FibAction],
    ) -> Option<PortAction> {
        let (mut fwd, mut local): (Vec<_>, Vec<_>) = match old {
            Some(PortAction::Forward(v)) => (v.clone(), Vec::new()),
            Some(PortAction::Deliver(v)) => (Vec::new(), v.clone()),
            Some(PortAction::Drop) | None => (Vec::new(), Vec::new()),
            Some(other) => unreachable!("filter action {other:?} in the FIB"),
        };
        let mut drop = matches!(old, Some(PortAction::Drop));
        for a in rem {
            match a {
                FibAction::Forward(i) => fwd.retain(|x| x != i),
                FibAction::Local(i) => local.retain(|x| x != i),
                FibAction::Drop => drop = false,
            }
        }
        for a in ins {
            match a {
                FibAction::Forward(i) => {
                    if !fwd.contains(i) {
                        fwd.push(*i);
                    }
                }
                FibAction::Local(i) => {
                    if !local.contains(i) {
                        local.push(*i);
                    }
                }
                FibAction::Drop => drop = true,
            }
        }
        debug_assert!(
            (drop as usize) + (!fwd.is_empty()) as usize + (!local.is_empty()) as usize <= 1,
            "mixed FIB actions for one prefix: drop={drop} fwd={fwd:?} local={local:?}"
        );
        if drop {
            Some(PortAction::Drop)
        } else if !local.is_empty() {
            Some(PortAction::deliver(local))
        } else if !fwd.is_empty() {
            Some(PortAction::forward(fwd))
        } else {
            None
        }
    }

    /// Number of grouped FIB rules currently installed.
    pub fn len(&self) -> usize {
        self.current.len()
    }
}

/// Convert a filter rule to its EC model form.
pub(crate) fn filter_rule(f: &FilterRule) -> ModelRule {
    ModelRule {
        element: ElementKey::Filter(f.node, f.iface, f.dir),
        // ACLs: lower sequence numbers match first.
        priority: u32::MAX - f.seq,
        rule_match: RuleMatch::Acl {
            proto: f.proto,
            src: f.src,
            dst: f.dst,
            dst_ports: f.dst_ports,
        },
        action: if f.permit { PortAction::Permit } else { PortAction::Deny },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_netcfg::types::IfaceId;
    use rc_routing::route::FibEntry;

    fn entry(node: u32, prefix: &str, iface: u32) -> FibEntry {
        FibEntry {
            node: NodeId(node),
            prefix: prefix.parse().unwrap(),
            action: FibAction::Forward(IfaceId(iface)),
        }
    }

    #[test]
    fn insert_then_ecmp_then_shrink() {
        let mut g = FibGrouper::default();
        // First leg.
        let ups = g.convert(&FibDelta { inserted: vec![entry(0, "10.0.0.0/8", 1)], removed: vec![] });
        assert_eq!(ups.len(), 1);
        assert!(matches!(&ups[0], RuleUpdate::Insert(r) if r.action == PortAction::forward(vec![IfaceId(1)])));

        // Second leg: replace with the 2-way group.
        let ups = g.convert(&FibDelta { inserted: vec![entry(0, "10.0.0.0/8", 2)], removed: vec![] });
        assert_eq!(ups.len(), 2);
        assert!(matches!(&ups[0], RuleUpdate::Remove(_)));
        assert!(
            matches!(&ups[1], RuleUpdate::Insert(r) if r.action == PortAction::forward(vec![IfaceId(1), IfaceId(2)]))
        );

        // Lose one leg.
        let ups = g.convert(&FibDelta { inserted: vec![], removed: vec![entry(0, "10.0.0.0/8", 1)] });
        assert!(
            matches!(&ups[1], RuleUpdate::Insert(r) if r.action == PortAction::forward(vec![IfaceId(2)]))
        );

        // Lose the last leg: pure removal.
        let ups = g.convert(&FibDelta { inserted: vec![], removed: vec![entry(0, "10.0.0.0/8", 2)] });
        assert_eq!(ups.len(), 1);
        assert!(matches!(&ups[0], RuleUpdate::Remove(_)));
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn simultaneous_swap_is_one_replace() {
        let mut g = FibGrouper::default();
        g.convert(&FibDelta { inserted: vec![entry(0, "10.0.0.0/8", 1)], removed: vec![] });
        let ups = g.convert(&FibDelta {
            inserted: vec![entry(0, "10.0.0.0/8", 2)],
            removed: vec![entry(0, "10.0.0.0/8", 1)],
        });
        assert_eq!(ups.len(), 2, "one remove + one insert");
    }

    #[test]
    fn no_op_delta_emits_nothing() {
        let mut g = FibGrouper::default();
        g.convert(&FibDelta { inserted: vec![entry(0, "10.0.0.0/8", 1)], removed: vec![] });
        let ups = g.convert(&FibDelta { inserted: vec![], removed: vec![] });
        assert!(ups.is_empty());
    }

    #[test]
    fn drop_entries_group() {
        let mut g = FibGrouper::default();
        let drop_entry = FibEntry {
            node: NodeId(0),
            prefix: "10.0.0.0/8".parse().unwrap(),
            action: FibAction::Drop,
        };
        let ups = g.convert(&FibDelta { inserted: vec![drop_entry], removed: vec![] });
        assert!(matches!(&ups[0], RuleUpdate::Insert(r) if r.action == PortAction::Drop));
    }
}
