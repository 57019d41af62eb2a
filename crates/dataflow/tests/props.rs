//! Incrementality soundness: for random sequences of edge insertions
//! and deletions, incrementally-maintained reachability and shortest
//! paths must equal a from-scratch recomputation after every epoch.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use proptest::prelude::*;
use rc_dataflow::{Collection, Dataflow};

const N: u32 = 6;

#[derive(Clone, Debug)]
enum Cmd {
    Insert(u32, u32, u64),
    /// Remove the i-th live edge (modulo count), if any.
    RemoveNth(usize),
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0..N, 0..N, 1u64..5).prop_map(|(a, b, w)| Cmd::Insert(a, b, w)),
            2 => any::<usize>().prop_map(Cmd::RemoveNth),
        ],
        1..25,
    )
}

/// Oracle: transitive closure by naive iteration.
fn oracle_reach(edges: &BTreeSet<(u32, u32, u64)>) -> BTreeSet<(u32, u32)> {
    let mut reach: BTreeSet<(u32, u32)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
    loop {
        let mut added = false;
        let snapshot: Vec<_> = reach.iter().cloned().collect();
        for &(a, b) in &snapshot {
            for &(c, d, _) in edges.iter() {
                if b == c && reach.insert((a, d)) {
                    added = true;
                }
            }
        }
        if !added {
            break;
        }
    }
    reach
}

/// Oracle: Dijkstra from node 0.
fn oracle_sssp(edges: &BTreeSet<(u32, u32, u64)>) -> BTreeMap<u32, u64> {
    let mut dist: BTreeMap<u32, u64> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, 0u32)));
    while let Some(std::cmp::Reverse((d, n))) = heap.pop() {
        if dist.contains_key(&n) {
            continue;
        }
        dist.insert(n, d);
        for &(a, b, w) in edges.iter() {
            if a == n && !dist.contains_key(&b) {
                heap.push(std::cmp::Reverse((d + w, b)));
            }
        }
    }
    dist
}

fn reachability(edges: &Collection<(u32, u32, u64)>) -> Collection<(u32, u32)> {
    let pairs = edges.map(|(a, b, _)| (a, b)).distinct();
    pairs.iterate(|inner| {
        let step = inner.map(|(x, y)| (y, x)).join(&pairs.clone()).map(|(_, (x, z))| (x, z));
        inner.concat(&step).distinct()
    })
}

fn sssp(
    edges: &Collection<(u32, u32, u64)>,
    seed: &Collection<(u32, u64)>,
) -> Collection<(u32, u64)> {
    seed.iterate(|inner| {
        let relaxed = inner
            .join(&edges.map(|(s, d, w)| (s, (d, w))))
            .map(|(_, (cost, (d, w)))| (d, cost + w));
        inner.concat(&relaxed).reduce_min()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_equals_from_scratch(cmds in arb_cmds()) {
        let mut df = Dataflow::new();
        let (edges_in, edges) = df.input::<(u32, u32, u64)>();
        let (seed_in, seed) = df.input::<(u32, u64)>();
        seed_in.insert((0, 0));
        let mut reach_out = reachability(&edges).output();
        let mut dist_out = sssp(&edges, &seed).output();

        let mut live: BTreeSet<(u32, u32, u64)> = BTreeSet::new();
        df.advance().unwrap();
        reach_out.drain();
        dist_out.drain();

        for (step, cmd) in cmds.into_iter().enumerate() {
            match cmd {
                Cmd::Insert(a, b, w) => {
                    if live.insert((a, b, w)) {
                        edges_in.insert((a, b, w));
                    }
                }
                Cmd::RemoveNth(i) => {
                    if !live.is_empty() {
                        let e = *live.iter().nth(i % live.len()).unwrap();
                        live.remove(&e);
                        edges_in.remove(e);
                    }
                }
            }
            df.advance().unwrap();
            reach_out.drain();
            dist_out.drain();

            // Multiplicities must all be exactly one.
            for (d, r) in reach_out.state() {
                prop_assert_eq!(r, 1, "reach multiplicity for {:?}", d);
            }
            let got_reach: BTreeSet<(u32, u32)> = reach_out.state_set().into_iter().collect();
            prop_assert_eq!(&got_reach, &oracle_reach(&live), "reach mismatch at step {}", step);

            let got_dist: BTreeMap<u32, u64> = dist_out.state_set().into_iter().collect();
            prop_assert_eq!(&got_dist, &oracle_sssp(&live), "sssp mismatch at step {}", step);

            // Periodic compaction must not disturb anything.
            if step % 7 == 3 {
                df.compact();
            }
        }
    }
}

// ---------------------------------------------------------------------
// General reduce logic: non-monotone and multi-valued, at top level and
// inside `iterate`, under multi-epoch churn with retractions.
// ---------------------------------------------------------------------

/// Hop bound of the in-loop levels computation.
const HOPS: u32 = 3;

/// Per node, its consolidated `((hop, label), count)` values.
type Levels = BTreeMap<u32, Vec<((u32, u32), isize)>>;

#[derive(Clone, Debug)]
enum Churn {
    /// Toggle a directed edge of the levels graph.
    Edge(u32, u32),
    /// Toggle a seed label at a node.
    Seed(u32, u32),
    /// Add one copy of a top-level `(key, value)` record.
    Add(u32, u32),
    /// Retract one copy of the i-th live top-level record, if any.
    Retract(usize),
}

fn arb_churn() -> impl Strategy<Value = Vec<Vec<Churn>>> {
    let churn = prop_oneof![
        3 => (0..N, 0..N).prop_map(|(a, b)| Churn::Edge(a, b)),
        2 => (0..N, 0..4u32).prop_map(|(n, l)| Churn::Seed(n, l)),
        3 => (0..3u32, 0..5u32).prop_map(|(k, v)| Churn::Add(k, v)),
        2 => any::<usize>().prop_map(Churn::Retract),
    ];
    // Several changes per epoch, so one epoch can both add and retract.
    prop::collection::vec(prop::collection::vec(churn, 1..4), 1..12)
}

/// Top-level logic: with an even total count, the two smallest values;
/// with an odd one, the largest value twice. Non-monotone (adding a copy
/// can replace small values by a large one) and multi-valued.
fn parity_pick(vals: &[(u32, isize)]) -> Vec<(u32, isize)> {
    let count: isize = vals.iter().map(|(_, r)| r).sum();
    if count % 2 == 0 {
        vals.iter().take(2).map(|(v, _)| (*v, 1)).collect()
    } else {
        vec![(vals.last().expect("nonempty").0, 2)]
    }
}

/// In-loop logic over `(hop, label)` values: for each hop `h` present,
/// the values at hops `≤ h` give the parity pick, tagged with `h`. The
/// output at a hop depends on every lower hop — which the loop delivers
/// at earlier iterations — so a change at a low hop must revisit the
/// key's later iterations. Levels depend only on lower levels, so the
/// loop converges whatever the parity does.
fn levels(vals: &[((u32, u32), isize)]) -> Vec<((u32, u32), isize)> {
    let mut out = Vec::new();
    let mut prefix: Vec<(u32, isize)> = Vec::new();
    let mut i = 0;
    while i < vals.len() {
        let h = vals[i].0 .0;
        while i < vals.len() && vals[i].0 .0 == h {
            prefix.push((vals[i].0 .1, vals[i].1));
            i += 1;
        }
        rc_dataflow::consolidate_values(&mut prefix);
        out.extend(parity_pick(&prefix).into_iter().map(|(l, r)| ((h, l), r)));
    }
    out
}

/// From-scratch levels: recompute every node's output from its inputs
/// until nothing changes.
fn oracle_levels(
    edges: &BTreeSet<(u32, u32)>,
    seeds: &BTreeSet<(u32, u32)>,
) -> BTreeMap<(u32, (u32, u32)), isize> {
    let mut out: Levels = BTreeMap::new();
    loop {
        let mut input: Levels = BTreeMap::new();
        for &(n, l) in seeds {
            input.entry(n).or_default().push(((0, l), 1));
        }
        for &(a, b) in edges {
            for &((h, l), r) in out.get(&a).map(|v| v.as_slice()).unwrap_or(&[]) {
                if h < HOPS {
                    input.entry(b).or_default().push(((h + 1, l), r));
                }
            }
        }
        let next: Levels = input
            .into_iter()
            .map(|(n, mut vals)| {
                rc_dataflow::consolidate_values(&mut vals);
                let mut picked = levels(&vals);
                rc_dataflow::consolidate_values(&mut picked);
                (n, picked)
            })
            .collect();
        if next == out {
            break;
        }
        out = next;
    }
    out.into_iter().flat_map(|(n, vals)| vals.into_iter().map(move |(v, r)| ((n, v), r))).collect()
}

fn levels_loop(
    edges: &Collection<(u32, u32)>,
    seeds: &Collection<(u32, u32)>,
) -> Collection<(u32, (u32, u32))> {
    let start = seeds.map(|(n, l)| (n, (0, l)));
    start.iterate(|inner| {
        let step = inner
            .join(edges)
            .filter(|(_, ((h, _), _))| *h < HOPS)
            .map(|(_, ((h, l), b))| (b, (h + 1, l)));
        start.concat(&step).reduce_named("levels", |_, vals| levels(vals))
    })
}

/// Multiset state of an output, as a map.
fn state_map<D: rc_dataflow::Data>(out: &rc_dataflow::OutputHandle<D>) -> BTreeMap<D, isize> {
    out.state().into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_reduce_equals_from_scratch(epochs in arb_churn()) {
        let mut df = Dataflow::new();
        let (edges_in, edges) = df.input::<(u32, u32)>();
        let (seeds_in, seeds) = df.input::<(u32, u32)>();
        let (pairs_in, pairs) = df.input::<(u32, u32)>();
        let mut levels_out = levels_loop(&edges, &seeds).output();
        let mut picks_out = pairs.reduce_named("parity", |_, vals| parity_pick(vals)).output();

        let (mut live_edges, mut live_seeds) = (BTreeSet::new(), BTreeSet::new());
        let mut live_pairs: Vec<(u32, u32)> = Vec::new();
        for (epoch, changes) in epochs.into_iter().enumerate() {
            for change in changes {
                match change {
                    Churn::Edge(a, b) => {
                        if live_edges.insert((a, b)) {
                            edges_in.insert((a, b));
                        } else {
                            live_edges.remove(&(a, b));
                            edges_in.remove((a, b));
                        }
                    }
                    Churn::Seed(n, l) => {
                        if live_seeds.insert((n, l)) {
                            seeds_in.insert((n, l));
                        } else {
                            live_seeds.remove(&(n, l));
                            seeds_in.remove((n, l));
                        }
                    }
                    Churn::Add(k, v) => {
                        live_pairs.push((k, v));
                        pairs_in.insert((k, v));
                    }
                    Churn::Retract(i) => {
                        if !live_pairs.is_empty() {
                            let p = live_pairs.swap_remove(i % live_pairs.len());
                            pairs_in.remove(p);
                        }
                    }
                }
            }
            df.advance().unwrap();
            levels_out.drain();
            picks_out.drain();

            prop_assert_eq!(
                state_map(&levels_out),
                oracle_levels(&live_edges, &live_seeds),
                "levels diverged at epoch {}",
                epoch
            );
            let mut by_key: BTreeMap<u32, Vec<(u32, isize)>> = BTreeMap::new();
            for &(k, v) in &live_pairs {
                by_key.entry(k).or_default().push((v, 1));
            }
            let want: BTreeMap<(u32, u32), isize> = by_key
                .into_iter()
                .flat_map(|(k, mut vals)| {
                    rc_dataflow::consolidate_values(&mut vals);
                    parity_pick(&vals).into_iter().map(move |(v, r)| ((k, v), r))
                })
                .collect();
            prop_assert_eq!(
                state_map(&picks_out),
                want,
                "parity picks diverged at epoch {}",
                epoch
            );
        }
    }
}

/// A key inside `iterate` whose history holds iterations above the time
/// of a new change. `v` hears 10 over one hop and 5 over three, so its
/// two smallest distances change at two iterations; a new one-hop 7
/// arrives at the lower one and must also be re-evaluated at the higher
/// one, where the answer is {5, 7}. Enqueueing only the new time — the
/// top-level rule — would leave 10 in place of 7 there.
#[test]
fn in_loop_change_below_recorded_iterations_revisits_them() {
    let mut df = Dataflow::new();
    let (edges_in, edges) = df.input::<(u32, u32, u64)>();
    let (seed_in, seed) = df.input::<(u32, u64)>();
    seed_in.insert((0, 0));
    let two_smallest = seed.iterate(|inner| {
        let relaxed = inner
            .join(&edges.map(|(s, d, w)| (s, (d, w))))
            .map(|(_, (cost, (d, w)))| (d, cost + w));
        seed.concat(&relaxed).reduce_named("two-smallest", |_, vals| {
            vals.iter().take(2).map(|(d, _)| (*d, 1)).collect()
        })
    });
    let mut out = two_smallest.output();
    let (v, a, b) = (3, 1, 2);
    edges_in.extend([(0, v, 10), (0, a, 1), (a, b, 1), (b, v, 3)]);
    df.advance().unwrap();
    out.drain();
    let at_v = |out: &rc_dataflow::OutputHandle<(u32, u64)>| {
        out.state().into_iter().filter(|((n, _), _)| *n == v).collect::<Vec<_>>()
    };
    assert_eq!(at_v(&out), vec![((v, 5), 1), ((v, 10), 1)]);

    edges_in.insert((0, v, 7));
    df.advance().unwrap();
    out.drain();
    assert_eq!(at_v(&out), vec![((v, 5), 1), ((v, 7), 1)]);
}
