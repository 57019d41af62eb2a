//! Route and FIB value types shared by the dataflow engine and the
//! from-scratch baseline.

use std::sync::Arc;

use rc_netcfg::types::{IfaceId, NodeId, Prefix};

/// An interned, immutable node path. BGP route values are the hottest
/// tuples in the dataflow traces — the session join holds every best
/// route, the `min` reduce every import — so the path is stored as a shared
/// `Arc<[NodeId]>`: cloning a route bumps a refcount instead of
/// reallocating a `Vec`, and every trace layer holding the same route
/// shares one allocation. Comparison, ordering and hashing delegate to
/// the slice, so route selection is unchanged.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PathVec(Arc<[NodeId]>);

impl PathVec {
    /// The one-hop path of a locally originated route.
    pub fn single(node: NodeId) -> Self {
        PathVec(Arc::from([node]))
    }

    /// A new path extending `self` by one hop. The only allocation an
    /// import performs.
    pub fn appending(&self, node: NodeId) -> Self {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(node);
        PathVec(v.into())
    }
}

impl std::ops::Deref for PathVec {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.0
    }
}

/// What a FIB entry does with a matching packet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FibAction {
    /// Send out of the interface (the adjacent device, if any, is
    /// resolved through the link relation by consumers).
    Forward(IfaceId),
    /// Deliver onto the connected subnet of the interface (connected
    /// routes): the packet terminates here instead of transiting to
    /// the link peer.
    Local(IfaceId),
    /// Discard (static null0 routes).
    Drop,
}

/// One forwarding entry: longest prefix match on `prefix` at `node`.
/// ECMP appears as multiple entries for the same `(node, prefix)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FibEntry {
    pub node: NodeId,
    pub prefix: Prefix,
    pub action: FibAction,
}

/// The protocol a RIB entry came from, with its admin distance baked
/// into the ordering (field order matters for `Ord`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RibValue {
    pub admin: u8,
    pub action: FibAction,
}

/// A BGP route as carried through best-path selection.
///
/// `score` is ordered so that `Ord`-minimum is BGP-best:
/// `(u32::MAX − local_pref, path length, MED, neighbor id)` — higher
/// local preference wins, then shorter AS path, then lower
/// multi-exit discriminator (compared across all neighbors, i.e.
/// `bgp always-compare-med` semantics), then lowest neighbor id
/// (router-id tiebreak). `path` lists the nodes the route has
/// traversed, ending with the current holder; since every device is its
/// own AS in the modeled networks, node path and AS path coincide.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BgpRoute {
    pub score: (u32, u32, u32, u32),
    pub path: PathVec,
    /// The local session interface the route was learned through;
    /// `None` for locally originated routes.
    pub out: Option<IfaceId>,
}

impl BgpRoute {
    /// The default local preference Cisco assigns to received routes.
    pub const DEFAULT_LOCAL_PREF: u32 = 100;
    /// The MED of routes whose advertisement carries none.
    pub const DEFAULT_MED: u32 = 0;

    /// A locally originated route at `node`.
    pub fn originate(node: NodeId) -> Self {
        BgpRoute {
            score: (u32::MAX - Self::DEFAULT_LOCAL_PREF, 1, Self::DEFAULT_MED, 0),
            path: PathVec::single(node),
            out: None,
        }
    }

    /// The route `node` obtains by importing `self` from `peer` with
    /// the given local preference and multi-exit discriminator. MED is
    /// a per-advertisement attribute: it is whatever the export/import
    /// policies of this session set, never inherited from the route's
    /// previous hops.
    pub fn import(
        &self,
        node: NodeId,
        peer: NodeId,
        iface: IfaceId,
        local_pref: u32,
        med: u32,
    ) -> Self {
        let path = self.path.appending(node);
        BgpRoute {
            score: (u32::MAX - local_pref, path.len() as u32, med, peer.0),
            path,
            out: Some(iface),
        }
    }

    pub fn local_pref(&self) -> u32 {
        u32::MAX - self.score.0
    }

    pub fn med(&self) -> u32 {
        self.score.2
    }
}

/// A FIB delta: entries that appeared and disappeared in one epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FibDelta {
    pub inserted: Vec<FibEntry>,
    pub removed: Vec<FibEntry>,
}

impl FibDelta {
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }
}

/// An ACL rule as forwarded to the data plane model (a filter rule in
/// the paper's terms). Mirrors `Fact::AclRule` but lives here so the
/// data plane stage does not depend on configuration internals.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FilterRule {
    pub node: NodeId,
    pub iface: IfaceId,
    pub dir: rc_netcfg::facts::Dir,
    pub seq: u32,
    pub permit: bool,
    pub proto: Option<u8>,
    pub src: Prefix,
    pub dst: Prefix,
    pub dst_ports: Option<(u16, u16)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgp_score_prefers_local_pref_then_path() {
        let o = BgpRoute::originate(NodeId(7));
        assert_eq!(o.local_pref(), 100);
        let n = NodeId(1);
        let low_lp = o.import(n, NodeId(7), IfaceId(0), 50, 0);
        let high_lp = o.import(n, NodeId(7), IfaceId(0), 150, 0);
        let def = o.import(n, NodeId(7), IfaceId(0), 100, 0);
        assert!(high_lp < def, "higher local-pref must rank first");
        assert!(def < low_lp);
        // Same LP: shorter path wins.
        let longer = def.import(NodeId(2), n, IfaceId(1), 100, 0);
        assert!(def.score < longer.score);
        // Same LP and length: lower MED wins.
        let med5 = o.import(n, NodeId(3), IfaceId(0), 100, 5);
        let med9 = o.import(n, NodeId(3), IfaceId(0), 100, 9);
        assert!(med5 < med9);
        // Same LP, length and MED: lower neighbor id wins.
        let via3 = o.import(n, NodeId(3), IfaceId(0), 100, 0);
        let via9 = o.import(n, NodeId(9), IfaceId(0), 100, 0);
        assert!(via3 < via9);
    }

    #[test]
    fn import_tracks_path() {
        let o = BgpRoute::originate(NodeId(5));
        let r = o.import(NodeId(1), NodeId(5), IfaceId(2), 100, 0);
        assert_eq!(&r.path[..], [NodeId(5), NodeId(1)]);
        assert_eq!(r.out, Some(IfaceId(2)));
        assert!(r.path.contains(&NodeId(5)), "loop check data present");
    }

    #[test]
    fn rib_value_ordering_is_admin_first() {
        let conn = RibValue { admin: 0, action: FibAction::Forward(IfaceId(9)) };
        let ospf = RibValue { admin: 110, action: FibAction::Forward(IfaceId(0)) };
        assert!(conn < ospf);
    }
}
