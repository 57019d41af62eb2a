//! Parallel checking is an implementation detail: for any worker count
//! the checker must produce byte-identical reports and verdict
//! histories. A serial (threads = 1) and a parallel (threads = 4)
//! checker are driven in lockstep through random change batches and
//! compared after every step; a second test proves a panic on a pool
//! worker propagates out of the checking pass instead of deadlocking
//! or being swallowed.

use std::collections::BTreeSet;
use std::sync::Mutex;

use proptest::prelude::*;
use rc_apkeep::{
    ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder,
};
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
use rc_policy::{PacketClass, Policy, PolicyChecker};

/// The walk-panic arm is process-global and one-shot, and both tests
/// walk ECs: serialize them so the panic armed by one cannot fire
/// inside a walk of the other.
static WALK_ARM_LOCK: Mutex<()> = Mutex::new(());

const NODES: u32 = 5;
const PREFIXES: [&str; 3] = ["10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/23"];
/// Interpreted iface choices: forward along the chain, host-deliver,
/// or backwards (loop-prone).
const IFACES: [u32; 3] = [1, 9, 0];

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn port(node: u32, iface: u32) -> Port {
    Port { node: n(node), iface: IfaceId(iface) }
}

fn fwd(node: u32, prefix: &str, iface: u32) -> ModelRule {
    let p: Prefix = prefix.parse().unwrap();
    ModelRule {
        element: ElementKey::Forward(n(node)),
        priority: p.len() as u32,
        rule_match: RuleMatch::DstPrefix(p),
        action: PortAction::forward(vec![IfaceId(iface)]),
    }
}

/// One model + checker half of the lockstep pair, on a 5-node chain
/// (node i ↔ node i+1 via ifaces 1/0) with a standing policy mix.
struct Net {
    model: ApkModel,
    checker: PolicyChecker,
}

fn build(threads: Option<usize>) -> Net {
    let mut model = ApkModel::new();
    let mut checker = PolicyChecker::new();
    checker.set_threads(threads);
    checker.set_nodes((0..NODES).map(n));
    let mut links = Vec::new();
    for i in 0..NODES - 1 {
        links.push((port(i, 1), port(i + 1, 0), 1));
        links.push((port(i + 1, 0), port(i, 1), 1));
    }
    checker.apply_link_delta(&links);

    let class = |p: &str| PacketClass::DstPrefix(p.parse().unwrap());
    checker.add_policy(
        &mut model,
        Policy::Reachability { src: n(0), dst: n(NODES - 1), class: class(PREFIXES[0]) },
    );
    checker.add_policy(
        &mut model,
        Policy::Isolation { src: n(0), dst: n(NODES - 1), class: class(PREFIXES[1]) },
    );
    checker.add_policy(
        &mut model,
        Policy::Waypoint { src: n(0), dst: n(NODES - 1), via: n(2), class: class(PREFIXES[2]) },
    );
    checker.add_policy(&mut model, Policy::LoopFree { class: PacketClass::All });
    checker.add_policy(&mut model, Policy::BlackholeFree { src: n(0), class: class(PREFIXES[0]) });
    Net { model, checker }
}

/// One generated operation: a forwarding-rule toggle or a link toggle.
/// Interpretation (present-set tracking) happens in the test body so
/// both halves of the pair see the exact same update lists.
#[derive(Clone, Debug)]
enum Op {
    /// Toggle `fwd(node, PREFIXES[pidx], IFACES[iidx])`.
    Rule { node: u32, pidx: usize, iidx: usize },
    /// Toggle both directions of chain link `idx` ↔ `idx + 1`.
    Link { idx: u32 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..NODES, 0..PREFIXES.len(), 0..IFACES.len())
            .prop_map(|(node, pidx, iidx)| Op::Rule { node, pidx, iidx }),
        1 => (0..NODES - 1).prop_map(|idx| Op::Link { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reports_are_identical_for_any_worker_count(
        steps in prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..10),
    ) {
        let _serialized = WALK_ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut serial = build(Some(1));
        let mut par = build(Some(4));

        let full_s = serial.checker.check_full(&mut serial.model);
        let full_p = par.checker.check_full(&mut par.model);
        prop_assert_eq!(&full_s, &full_p, "initial full pass");

        let mut rules_up: BTreeSet<(u32, usize, usize)> = BTreeSet::new();
        let mut links_down: BTreeSet<u32> = BTreeSet::new();
        for (i, step) in steps.iter().enumerate() {
            let mut updates = Vec::new();
            let mut link_delta: Vec<(Port, Port, isize)> = Vec::new();
            for op in step {
                match *op {
                    Op::Rule { node, pidx, iidx } => {
                        let rule = fwd(node, PREFIXES[pidx], IFACES[iidx]);
                        if rules_up.insert((node, pidx, iidx)) {
                            updates.push(RuleUpdate::Insert(rule));
                        } else {
                            rules_up.remove(&(node, pidx, iidx));
                            updates.push(RuleUpdate::Remove(rule));
                        }
                    }
                    Op::Link { idx } => {
                        let dir = if links_down.insert(idx) { -1 } else { 1 };
                        if dir > 0 {
                            links_down.remove(&idx);
                        }
                        link_delta.push((port(idx, 1), port(idx + 1, 0), dir));
                        link_delta.push((port(idx + 1, 0), port(idx, 1), dir));
                    }
                }
            }

            let touched_s = serial.checker.apply_link_delta(&link_delta);
            let touched_p = par.checker.apply_link_delta(&link_delta);
            prop_assert_eq!(&touched_s, &touched_p, "step {}: touched ECs", i);

            let sum_s = serial.model.apply_batch(updates.clone(), UpdateOrder::InsertFirst);
            let sum_p = par.model.apply_batch(updates, UpdateOrder::InsertFirst);
            prop_assert_eq!(sum_s.affected.len(), sum_p.affected.len(), "step {}: model", i);

            let rep_s = serial.checker.check_incremental(&mut serial.model, &sum_s, touched_s);
            let rep_p = par.checker.check_incremental(&mut par.model, &sum_p, touched_p);
            prop_assert_eq!(&rep_s, &rep_p, "step {}: incremental report", i);
            prop_assert_eq!(
                serial.checker.verdicts(),
                par.checker.verdicts(),
                "step {}: verdict history", i
            );
        }

        // A final full pass over the accumulated state must agree too.
        let full_s = serial.checker.check_full(&mut serial.model);
        let full_p = par.checker.check_full(&mut par.model);
        prop_assert_eq!(&full_s, &full_p, "final full pass");
        prop_assert_eq!(serial.checker.verdicts(), par.checker.verdicts());
    }
}

/// A panic on whichever pool worker walks the armed EC must unwind out
/// of the checking pass (so the verifier's catch_unwind containment
/// sees it) — completing at all proves it did not deadlock the pool.
#[test]
fn worker_panic_propagates_to_the_caller() {
    let _serialized = WALK_ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Silence the default hook for the expected injected panic only.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX));
        if !injected {
            default(info);
        }
    }));

    let mut net = build(Some(4));
    // Populate several ECs so the walk phase actually fans out.
    let updates = (0..PREFIXES.len())
        .flat_map(|p| (0..NODES).map(move |node| RuleUpdate::Insert(fwd(node, PREFIXES[p], 1))))
        .collect();
    net.model.apply_batch(updates, UpdateOrder::InsertFirst);
    let target = net.model.ecs().map(|e| e.0).max().expect("model has ECs");

    rc_faults::arm_walk_panic(target);
    let Net { mut model, mut checker } = net;
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        checker.check_full(&mut model)
    }))
    .expect_err("armed walk must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX), "got: {msg:?}");
    rc_faults::disarm_walk_panic();

    // The pool is scoped per call: the next pass runs clean.
    let report = checker.check_full(&mut model);
    assert!(report.affected_ecs > 0);
}
