//! Coalescing soundness: folding a burst of changes into one
//! transactional apply ([`RealConfig::apply_coalesced`]) must reach
//! exactly the state of applying the same changes one at a time —
//! configurations, FIB, grouped rules, pair counts and policy verdicts
//! alike, on both predicate backends.
//!
//! EC *counts* are deliberately not compared: the partition's
//! refinement is history-dependent (transient splits differ with batch
//! boundaries) while the behaviour it encodes — FIB, rules, reachable
//! pairs, verdicts — must not be.

mod common;

use common::{to_changeset, Cmd};
use proptest::prelude::*;
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{grid, host_prefix, ring, Topology};
use realconfig::{PredKind, RealConfig, VerifierOptions};

fn run_pair(proto: ProtocolChoice, topo: Topology, cmds: Vec<Cmd>, backend: PredKind) {
    let configs = build_configs(&topo, proto);
    let opts = VerifierOptions { backend, ..Default::default() };
    let Ok((mut serial, _)) = RealConfig::with_options(configs.clone(), opts) else {
        return;
    };
    let Ok((mut batch, _)) = RealConfig::with_options(configs, opts) else {
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
        run_pair(ProtocolChoice::Ospf, ring(5), cmds, PredKind::Bdd);
    }

    #[test]
    fn ospf_grid_atoms(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Ospf, grid(3, 3), cmds, PredKind::Atoms);
    }

    #[test]
    fn bgp_ring_bdd(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Bgp, ring(5), cmds, PredKind::Bdd);
    }

    #[test]
    fn bgp_grid_atoms(cmds in arb_cmds()) {
        run_pair(ProtocolChoice::Bgp, grid(3, 3), cmds, PredKind::Atoms);
    }
}
