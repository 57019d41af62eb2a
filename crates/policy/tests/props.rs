//! Property tests: the SCC-condensation analysis must agree with a
//! naive per-source BFS on random forwarding graphs.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rc_netcfg::types::NodeId;
use rc_policy::{analyze, EcGraph};

const N: u32 = 8;

#[derive(Clone, Debug)]
struct RandomGraph {
    edges: Vec<(u32, u32)>,
    delivers: Vec<u32>,
    drops: Vec<u32>,
}

fn arb_graph() -> impl Strategy<Value = RandomGraph> {
    (
        prop::collection::vec((0..N, 0..N), 0..20),
        prop::collection::vec(0..N, 0..4),
        prop::collection::vec(0..N, 0..4),
    )
        .prop_map(|(edges, delivers, drops)| RandomGraph { edges, delivers, drops })
}

fn to_ec_graph(g: &RandomGraph) -> EcGraph {
    let mut eg = EcGraph::default();
    for &(a, b) in &g.edges {
        eg.succ.entry(NodeId(a)).or_default().insert(NodeId(b));
    }
    eg.delivers.extend(g.delivers.iter().map(|&i| NodeId(i)));
    eg.drops.extend(g.drops.iter().map(|&i| NodeId(i)));
    eg
}

/// Naive oracle: BFS reachability from each node over the successor
/// edges, then read terminal sets off the reachable region. A node
/// "can loop" iff it reaches a node that lies on a cycle (which in a
/// reachable-set formulation means: some reachable node can reach
/// itself through at least one edge).
fn naive(g: &RandomGraph, start: u32) -> (BTreeSet<u32>, bool, bool) {
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(a, b) in &g.edges {
        adj.entry(a).or_default().push(b);
    }
    let mut reach = BTreeSet::new();
    let mut queue = vec![start];
    while let Some(v) = queue.pop() {
        if !reach.insert(v) {
            continue;
        }
        for &w in adj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            queue.push(w);
        }
    }
    let delivered = g.delivers.iter().copied().filter(|v| reach.contains(v)).collect();
    let dropped = g.drops.iter().any(|v| reach.contains(v));
    // Loop: some reachable node v reaches itself via ≥1 edge.
    let loops = reach.iter().any(|&v| {
        let mut seen = BTreeSet::new();
        let mut q: Vec<u32> =
            adj.get(&v).map(|s| s.to_vec()).unwrap_or_default();
        while let Some(w) = q.pop() {
            if w == v {
                return true;
            }
            if !seen.insert(w) {
                continue;
            }
            for &x in adj.get(&w).map(Vec::as_slice).unwrap_or(&[]) {
                q.push(x);
            }
        }
        false
    });
    (delivered, dropped, loops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn analysis_matches_naive_bfs(g in arb_graph(), start in 0..N) {
        let eg = to_ec_graph(&g);
        let a = analyze(&eg);
        let (delivered, dropped, loops) = naive(&g, start);
        let s = NodeId(start);

        let got_del: BTreeSet<u32> =
            a.delivered.get(&s).map(|d| d.iter().map(|n| n.0).collect()).unwrap_or_default();
        let got_drop = a.dropped.contains(&s);

        // The analysis only reports nodes that appear in the graph; a
        // start node with no edges and no terminal flags is absent from
        // its maps, which the naive side sees as "reaches only itself".
        let known = eg.succ.contains_key(&s)
            || eg.succ.values().any(|v| v.contains(&s))
            || eg.delivers.contains(&s)
            || eg.drops.contains(&s);
        if known {
            prop_assert_eq!(&got_del, &delivered, "delivered from {}", start);
            prop_assert_eq!(got_drop, dropped, "dropped from {}", start);
            prop_assert_eq!(a.looping.contains(&s), loops, "loops from {}", start);
        } else {
            prop_assert!(got_del.is_empty() && delivered.is_empty());
            prop_assert!(!got_drop && !dropped);
            prop_assert!(!loops);
        }
    }
}
