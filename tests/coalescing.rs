//! Coalescing soundness: folding a burst of changes into one
//! transactional apply ([`RealConfig::apply_coalesced`]) must reach
//! exactly the state of applying the same changes one at a time —
//! configurations, FIB, grouped rules, EC counts, pair counts and
//! policy verdicts alike.

mod common;

use common::{to_changeset, Cmd};
use proptest::prelude::*;
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, grid, host_prefix, ring, Topology};
use realconfig::{ChangeOp, ChangeSet, RealConfig};
use std::collections::BTreeMap;

fn run_pair(proto: ProtocolChoice, topo: Topology, cmds: Vec<Cmd>) {
    let configs = build_configs(&topo, proto);
    let Ok((mut serial, _)) = RealConfig::new(configs.clone()) else {
        return;
    };
    let Ok((mut batch, _)) = RealConfig::new(configs) else {
        return;
    };

    // The same standing policies on both verifiers, so verdict
    // tracking is part of the comparison.
    let names: Vec<String> = serial.configs().keys().cloned().collect();
    let mut policies = Vec::new();
    for (i, s) in names.iter().take(3).enumerate() {
        let d = &names[names.len() - 1 - i];
        let pfx = host_prefix((names.len() - 1 - i) as u32);
        if let (Some(a), Some(b)) =
            (serial.require_reachability(s, d, pfx), batch.require_reachability(s, d, pfx))
        {
            policies.push((a, b));
        }
    }
    serial.recheck_policies();
    batch.recheck_policies();

    // Drive the serial verifier one change at a time, collecting the
    // exact `ChangeSet`s it applied (the command lowering is
    // state-aware, so the sets must come from the evolving serial
    // state).
    let mut burst = Vec::new();
    for cmd in &cmds {
        let Some(cs) = to_changeset(cmd, &serial) else { continue };
        if serial.apply_change(&cs).is_err() {
            return; // divergence: covered elsewhere
        }
        burst.push(cs);
    }
    if burst.is_empty() {
        return;
    }

    // The identical burst, folded into one transactional apply.
    let report = batch.apply_coalesced(&burst).expect("coalesced burst verifies");
    assert_eq!(report.coalesced_changes, burst.len());

    assert_eq!(serial.configs(), batch.configs(), "configs diverge after {cmds:?}");
    assert_eq!(serial.fib(), batch.fib(), "FIB diverges after {cmds:?}");
    assert_eq!(
        serial.num_fib_rules(),
        batch.num_fib_rules(),
        "grouped rule count diverges after {cmds:?}"
    );
    assert_eq!(serial.num_rules(), batch.num_rules(), "model rules diverge after {cmds:?}");
    assert_eq!(serial.num_ecs(), batch.num_ecs(), "EC count diverges after {cmds:?}");
    assert_eq!(serial.num_pairs(), batch.num_pairs(), "pair count diverges after {cmds:?}");
    for (a, b) in &policies {
        assert_eq!(
            serial.is_satisfied(*a),
            batch.is_satisfied(*b),
            "policy verdict diverges after {cmds:?}"
        );
    }
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..16, 0usize..4).prop_map(|(dev, iface)| Cmd::ToggleIface { dev, iface }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(1u32), Just(100)])
                .prop_map(|(dev, iface, cost)| Cmd::SetCost { dev, iface, cost }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(50u32), Just(150)])
                .prop_map(|(dev, iface, pref)| Cmd::SetLp { dev, iface, pref }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::StaticDrop { dev, pfx }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::UnStatic { dev, pfx }),
        ],
        2..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ospf_ring_bdd(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Ospf, ring(5), cmds);
    }

    #[test]
    fn ospf_grid_bdd(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Ospf, grid(3, 3), cmds);
    }

    #[test]
    fn bgp_ring_bdd(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Bgp, ring(5), cmds);
    }

    #[test]
    fn bgp_grid_bdd(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Bgp, grid(3, 3), cmds);
    }
}

/// History is folded where a change touches it, so a long stream of
/// maintenance windows keeps the engine's traces flat with no
/// `compact()` call and no schedule: each window restores the
/// aggregation switch the previous one drained, drains another one's
/// edge-facing links, and runs a three-flip cost storm on a third.
///
/// A touched key keeps its last epoch's differences unfolded until its
/// next touch (a replaced value is three records instead of one), and
/// a trace folds itself whole only once it has doubled, so the level
/// the trace settles at is above a from-scratch build's — at k=4,
/// where every window moves a third of the aggregation layer, it
/// swings between 1.7× and 2.2× — but it never climbs from there, and
/// folding everything at the end leaves exactly the from-scratch trace.
/// The keys here recur; the test after this one covers keys that never
/// come back.
#[test]
fn history_stays_flat_over_200_windows_without_a_compaction_schedule() {
    let topo = fat_tree(4);
    let (mut rc, _) =
        RealConfig::new(build_configs(&topo, ProtocolChoice::Ospf)).expect("fat tree verifies");
    // Four standing policies, registered the same way on the fresh
    // verifier the final state is compared against.
    let edges: Vec<&String> = topo.host_prefixes.keys().collect();
    let register = |rc: &mut RealConfig| {
        let ids: Vec<_> = (0..4)
            .map(|i| {
                let dst = edges[edges.len() - 1 - i];
                rc.require_reachability(edges[i], dst, topo.host_prefixes[dst][0])
                    .expect("devices exist")
            })
            .collect();
        rc.recheck_policies();
        ids
    };
    let policies = register(&mut rc);

    // Per aggregation switch, its edge-facing interfaces.
    let mut groups: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for l in &topo.links {
        for (end, peer) in [(&l.a, &l.b), (&l.b, &l.a)] {
            if !topo.host_prefixes.contains_key(&end.device)
                && topo.host_prefixes.contains_key(&peer.device)
            {
                groups.entry(&end.device).or_default().push(&end.iface);
            }
        }
    }
    let groups: Vec<(&str, Vec<&str>)> = groups.into_iter().collect();
    let mut raised = vec![false; groups.len()];
    let mut drained: Option<usize> = None;
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut pick = |avoid: &[Option<usize>]| loop {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let i = (lcg >> 33) as usize % groups.len();
        if !avoid.contains(&Some(i)) {
            break i;
        }
    };

    let built = rc.trace_records();
    let mut peak = [0, 0];
    for window in 0..200 {
        let mut burst = Vec::new();
        let mut push = |op| burst.push(ChangeSet { ops: vec![op] });
        let port = |g: usize, i: usize| (groups[g].0.to_string(), groups[g].1[i].to_string());
        if let Some(prev) = drained {
            for i in 0..groups[prev].1.len() {
                let (device, iface) = port(prev, i);
                push(ChangeOp::EnableInterface { device, iface });
            }
        }
        let drain = pick(&[drained]);
        for i in 0..groups[drain].1.len() {
            let (device, iface) = port(drain, i);
            push(ChangeOp::DisableInterface { device, iface });
        }
        let storm = pick(&[drained, Some(drain)]);
        raised[storm] = !raised[storm];
        for flip in 0..3 {
            let cost = if raised[storm] == (flip % 2 == 0) { 100 } else { 1 };
            for i in 0..groups[storm].1.len() {
                let (device, iface) = port(storm, i);
                push(ChangeOp::SetOspfCost { device, iface, cost });
            }
        }
        drained = Some(drain);
        let report = rc.apply_coalesced(&burst).expect("window verifies");
        assert!(!report.coalesced_noop, "window {window} folded to nothing");
        assert!(
            rc.trace_records() <= 5 * built / 2,
            "window {window}: {} trace records, {built} right after construction",
            rc.trace_records()
        );
        peak[window / 100] = rc.trace_records().max(peak[window / 100]);
    }
    assert!(
        peak[1] * 10 <= peak[0] * 11,
        "trace peaked at {} in the second hundred windows, {} in the first",
        peak[1],
        peak[0]
    );

    let (mut fresh, _) = RealConfig::new(rc.configs().clone()).expect("final configs verify");
    assert_eq!(rc.fib(), fresh.fib());
    assert_eq!(rc.num_rules(), fresh.num_rules());
    assert_eq!(rc.num_pairs(), fresh.num_pairs());
    for (id, twin) in policies.iter().zip(register(&mut fresh)) {
        assert_eq!(rc.is_satisfied(*id), fresh.is_satisfied(twin), "verdict of {id:?}");
    }

    // Fold-on-touch ≡ fold-everything ≡ from scratch: the explicit
    // full fold changes no answer and leaves the trace a fresh build of
    // the final configurations has.
    let fib = rc.fib();
    rc.compact();
    assert_eq!(rc.fib(), fib);
    assert_eq!(rc.trace_records(), fresh.trace_records());
}

/// The other side of the test above: traffic whose keys never come
/// back. Every cycle announces a prefix nobody has seen before and
/// then withdraws it — a static route on an OSPF ring, a BGP network
/// on a BGP ring — so fold-on-touch alone would never revisit the
/// withdrawn prefix's keys and each cycle would leave its `+1`/`-1`
/// pairs behind for good. The trace must stay within the whole-fold
/// bound (twice its folded size, plus the epoch in flight) however
/// long the stream runs, with no `compact()` call.
#[test]
fn history_stays_bounded_when_prefixes_are_announced_once_and_withdrawn() {
    for (proto, cycles) in [(ProtocolChoice::Ospf, 600u32), (ProtocolChoice::Bgp, 200)] {
        let (mut rc, _) = RealConfig::new(build_configs(&ring(5), proto)).expect("ring verifies");
        let built = rc.trace_records();
        let mut peak = 0;
        for cycle in 0..cycles {
            let device = format!("r{:03}", cycle % 5);
            let prefix: realconfig::Prefix =
                format!("10.{}.{}.0/24", cycle / 256, cycle % 256).parse().unwrap();
            let (announce, withdraw) = match proto {
                ProtocolChoice::Ospf => (
                    ChangeOp::AddStaticRoute {
                        device: device.clone(),
                        prefix,
                        next_hop: rc_netcfg::ast::NextHop::Drop,
                    },
                    ChangeOp::RemoveStaticRoute { device, prefix },
                ),
                _ => (
                    ChangeOp::AddBgpNetwork { device: device.clone(), prefix },
                    ChangeOp::RemoveBgpNetwork { device, prefix },
                ),
            };
            for op in [announce, withdraw] {
                rc.apply_change(&ChangeSet { ops: vec![op] }).expect("change verifies");
                peak = peak.max(rc.trace_records());
            }
        }
        assert!(
            peak <= 5 * built / 2,
            "{proto:?}: trace peaked at {peak} records over {cycles} announce/withdraw cycles, \
             {built} right after construction"
        );
        // Everything announced was withdrawn: the final state is the
        // initial one, and folding everything leaves a fresh build's
        // trace.
        rc.compact();
        assert_eq!(rc.trace_records(), built, "{proto:?}");
    }
}
