//! Whole-pipeline differential between the two predicate backends on
//! the paper's evaluation workload: two verifiers over the same k=4
//! BGP fat tree, one per backend, driven through the same change
//! sequence with the same policies. Every externally visible artifact
//! — FIBs, rule/EC/pair counts, change reports (non-timing fields),
//! policy verdicts, packet traces — must be identical.
//!
//! Backends are passed explicitly via `VerifierOptions::backend`, not
//! the process-global knob, so this test is safe under a parallel test
//! runner.

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix};
use realconfig::{ChangeSet, Packet, PredKind, RealConfig, VerifierOptions};

fn build_pair() -> (RealConfig, RealConfig) {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    let on = |backend| VerifierOptions { backend, ..Default::default() };
    let (with_bdd, full_b) =
        RealConfig::with_options(configs.clone(), on(PredKind::Bdd)).expect("bdd build");
    let (with_atoms, full_a) =
        RealConfig::with_options(configs, on(PredKind::Atoms)).expect("atoms build");
    assert_eq!(with_bdd.options().backend, PredKind::Bdd);
    assert_eq!(with_atoms.options().backend, PredKind::Atoms);
    assert_eq!(full_b.fib_entries, full_a.fib_entries);
    assert_eq!(full_b.rules, full_a.rules);
    assert_eq!(full_b.ecs, full_a.ecs);
    assert_eq!(full_b.pairs, full_a.pairs);
    (with_bdd, with_atoms)
}

fn assert_same_state(b: &RealConfig, a: &RealConfig) {
    assert_eq!(b.fib(), a.fib(), "FIBs diverge between backends");
    assert_eq!(b.num_rules(), a.num_rules());
    assert_eq!(b.num_pairs(), a.num_pairs());
}

#[test]
fn backends_agree_through_change_sequence() {
    let (mut with_bdd, mut with_atoms) = build_pair();

    // The same policies on both: one satisfiable reachability pair,
    // one that the link failure below will break.
    let pol_b = with_bdd
        .require_reachability("pod00-edge00", "pod01-edge00", host_prefix(4))
        .expect("nodes exist");
    let pol_a = with_atoms
        .require_reachability("pod00-edge00", "pod01-edge00", host_prefix(4))
        .expect("nodes exist");
    assert_eq!(pol_b, pol_a);
    with_bdd.recheck_policies();
    with_atoms.recheck_policies();
    assert_eq!(with_bdd.is_satisfied(pol_b), with_atoms.is_satisfied(pol_a));

    let changes = [
        ChangeSet::link_failure("pod00-edge00", "eth0"),
        ChangeSet::local_pref("pod01-edge00", "eth0", 150),
        ChangeSet {
            ops: vec![realconfig::ChangeOp::EnableInterface {
                device: "pod00-edge00".into(),
                iface: "eth0".into(),
            }],
        },
        ChangeSet::local_pref("pod01-edge00", "eth0", 100),
    ];
    for (i, cs) in changes.iter().enumerate() {
        let rb = with_bdd.apply_change(cs).expect("bdd verifies");
        let ra = with_atoms.apply_change(cs).expect("atoms verifies");
        assert_eq!(rb.fact_changes, ra.fact_changes, "change {i}");
        assert_eq!(rb.rules_inserted, ra.rules_inserted, "change {i}");
        assert_eq!(rb.rules_removed, ra.rules_removed, "change {i}");
        assert_eq!(rb.ec_moves, ra.ec_moves, "change {i}");
        assert_eq!(rb.affected_ecs, ra.affected_ecs, "change {i}");
        assert_eq!(rb.affected_pairs, ra.affected_pairs, "change {i}");
        assert_eq!(rb.newly_violated, ra.newly_violated, "change {i}");
        assert_eq!(rb.newly_satisfied, ra.newly_satisfied, "change {i}");
        assert_eq!(with_bdd.is_satisfied(pol_b), with_atoms.is_satisfied(pol_a), "change {i}");
        assert_same_state(&with_bdd, &with_atoms);
    }
}

#[test]
fn backends_trace_packets_identically() {
    let (with_bdd, with_atoms) = build_pair();
    for host in 0..8u32 {
        let pkt = Packet {
            dst_ip: host_prefix(host).addr().0 | 1,
            proto: 6,
            ..Default::default()
        };
        let tb = with_bdd.trace_packet("pod00-edge00", pkt);
        let ta = with_atoms.trace_packet("pod00-edge00", pkt);
        // PacketTrace carries no PartialEq; its Debug form covers every
        // field (hops, rules, EC id, delivery set).
        assert_eq!(format!("{tb:?}"), format!("{ta:?}"), "trace diverges for host {host}");
    }
}

#[test]
fn backend_survives_rebuild() {
    let (mut with_bdd, mut with_atoms) = build_pair();
    with_bdd.rebuild().expect("rebuild");
    with_atoms.rebuild().expect("rebuild");
    assert_eq!(with_bdd.options().backend, PredKind::Bdd);
    assert_eq!(with_atoms.options().backend, PredKind::Atoms);
    assert_same_state(&with_bdd, &with_atoms);
}
