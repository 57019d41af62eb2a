//! Crash-recovery chaos suite for the persistence subsystem: drive a
//! verifier through config churn with periodic snapshots and an active
//! journal while deterministic [`rc_faults`] store faults tear writes,
//! truncate appends, flip bits on read, and fail fsyncs — then crash
//! (drop the verifier cold) and reopen from disk. The recovery ladder
//! must always produce a working verifier (never poisoned, never a
//! refusal to start) whose state equals a never-crashed twin built
//! fresh over the recovered configurations.

mod common;

use common::{assert_same_state, fresh_twin_with, quiet_injected_panics, to_changeset, Cmd, Skip};
use proptest::prelude::*;
use rc_faults::{FaultPlan, FaultPoint};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{host_prefix, ring};
use realconfig::{OnFailure, RealConfig, VerifierOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique-per-use scratch state directory, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rc-chaos-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn standing_policies(rc: &mut RealConfig) {
    let names: Vec<String> = rc.configs().keys().cloned().collect();
    for (i, s) in names.iter().take(3).enumerate() {
        let di = names.len() - 1 - i;
        let d = names[di].clone();
        rc.require_reachability(s, &d, host_prefix(di as u32));
    }
    rc.recheck_policies();
}

/// The recovered verifier must match a never-crashed twin built fresh
/// over the recovered configurations, with the standing policies
/// registered on the twin itself: a recovery that drops or alters one
/// does not pass.
fn assert_matches_twin(rc: &mut RealConfig, ctx: &str) {
    let mut twin = fresh_twin_with(rc, &[]);
    standing_policies(&mut twin);
    if rc.policy_specs().is_empty() {
        // The bottom rung rebuilds from bare configurations; policies
        // are the caller's to re-register, exactly as on a cold start.
        standing_policies(rc);
    }
    rc.recheck_policies();
    // A store fault leaves a persistence warning until the next
    // snapshot; the twin has no state directory to warn about.
    assert_same_state(rc, &twin, &[Skip::PersistenceWarnings], ctx);
}

/// One chaos round: churn with a store fault armed, snapshot along the
/// way, crash, reopen, compare against the twin. Returns the reopened
/// verifier so rounds can chain on one state directory.
fn chaos_round(
    dir: &StateDir,
    mut rc: RealConfig,
    point: FaultPoint,
    fault_nth: u64,
    history: &mut Vec<BTreeMap<String, rc_netcfg::ast::DeviceConfig>>,
    round: usize,
) -> RealConfig {
    let guard = FaultPlan::new().error_on(point, fault_nth).install();
    for i in 0..4 {
        let cmd = Cmd::ToggleIface { dev: round * 5 + i * 3 + 1, iface: i };
        let Some(cs) = to_changeset(&cmd, &rc) else { continue };
        if rc.apply_change(&cs).is_ok() {
            history.push(rc.configs().clone());
        }
        assert!(!rc.needs_rebuild(), "round {round} change {i}: store fault poisoned");
        if i == 1 {
            // Mid-churn snapshot: may hit the armed fault; must fail
            // closed (state on disk stays a consistent prefix), never
            // panic or poison.
            let _ = rc.save_snapshot();
            assert!(!rc.needs_rebuild(), "round {round}: snapshot failure poisoned");
        }
    }
    drop(guard);

    // Crash: the verifier dies with no shutdown path. Reopen with the
    // last committed configurations as the fallback (the operator's
    // config files survive the crash even when the state dir did not).
    let fallback = rc.configs().clone();
    drop(rc);
    let fault_on_read = FaultPlan::new().error_on(point, 1).install();
    let (mut reopened, report) = RealConfig::open(&dir.0, fallback)
        .unwrap_or_else(|e| panic!("round {round} ({point:?}): recovery refused to start: {e}"));
    drop(fault_on_read);
    assert!(!reopened.needs_rebuild(), "round {round}: reopened verifier is poisoned");
    assert!(
        history.iter().any(|h| h == reopened.configs()),
        "round {round} ({point:?}): recovered configs match no committed state \
         (source {:?}, notes {:?})",
        report.source,
        report.notes
    );
    assert_matches_twin(&mut reopened, &format!("round {round} ({point:?})"));
    reopened
}

/// Every store fault point, exercised both during churn and during the
/// reopen itself, on one long-lived state directory.
#[test]
fn every_store_fault_point_recovers_to_the_twin() {
    let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let dir = StateDir::new("rotate");
    let (mut rc, _) = RealConfig::new(configs.clone()).expect("ring verifies");
    standing_policies(&mut rc);
    rc.attach_state_dir(&dir.0).expect("state dir creatable");
    rc.save_snapshot().expect("initial snapshot writes");

    let mut history = vec![configs];
    for (round, &point) in FaultPoint::STORE.iter().enumerate() {
        rc = chaos_round(&dir, rc, point, 1, &mut history, round);
        // Re-arm durability for the next round if the fault killed it.
        if !rc.journaling() {
            let _ = rc.save_snapshot();
        }
    }

    // After all the chaos: a clean snapshot and reopen round-trips.
    rc.save_snapshot().expect("post-chaos snapshot writes");
    let fallback = rc.configs().clone();
    let expected_fib = rc.fib();
    drop(rc);
    let (reopened, report) = RealConfig::open(&dir.0, fallback).expect("clean reopen");
    assert_eq!(report.replayed, 0, "clean reopen has nothing to replay");
    assert_eq!(reopened.fib(), expected_fib, "clean reopen lost state");
}

/// A burst that exercises folding (one superseded write) without
/// netting out to a no-op.
fn sample_burst() -> Vec<realconfig::ChangeSet> {
    use realconfig::ChangeSet;
    vec![
        ChangeSet::link_cost("r000", "eth0", 50),
        ChangeSet::link_cost("r000", "eth0", 100),
        ChangeSet::link_failure("r001", "eth0"),
        ChangeSet::link_cost("r002", "eth1", 77),
    ]
}

/// A crash right after a coalesced commit: the whole burst must be ONE
/// checksummed journal record, and replay must reopen to the committed
/// post-burst state.
#[test]
fn crash_mid_burst_replays_single_coalesced_record() {
    let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let dir = StateDir::new("burst");
    let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
    standing_policies(&mut rc);
    rc.attach_state_dir(&dir.0).expect("state dir creatable");
    rc.save_snapshot().expect("initial snapshot writes");
    let pre_burst = rc.configs().clone();

    let burst = sample_burst();
    let report = rc.apply_coalesced(&burst).expect("burst verifies");
    assert_eq!(report.coalesced_changes, burst.len());
    assert_eq!(report.cancelled_ops, 1, "the superseded cost write folds away");
    let committed = rc.configs().clone();
    let expected_fib = rc.fib();
    drop(rc); // crash: no shutdown path

    // The fallback is the PRE-burst configs: reaching the post-burst
    // state proves the journal record carried the burst, not the
    // bottom-rung rebuild.
    let (mut reopened, report) =
        RealConfig::open(&dir.0, pre_burst).expect("reopen after crash mid-burst");
    assert_eq!(report.replayed, 1, "a coalesced commit is exactly one journal record");
    assert_eq!(reopened.configs(), &committed, "reopen lost the burst");
    assert_eq!(reopened.fib(), expected_fib, "FIB diverged");
    assert_matches_twin(&mut reopened, "crash mid-burst");
}

/// Journal records whose replay fails mid-pipeline (stage 3 panics on
/// the replay apply): under the default failure policy the ladder
/// stops at the snapshot's state and discards the journal; under
/// [`OnFailure::Rebuild`] the failed apply is verified from scratch and
/// replay reaches the committed state. Never poisoned, never a refusal
/// to start, journaling re-armed.
#[test]
fn failed_replay_heals_per_the_failure_policy() {
    quiet_injected_panics();
    for on_failure in [OnFailure::Poison, OnFailure::Rebuild] {
        let ctx = format!("{on_failure:?}");
        let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
        let dir = StateDir::new("failed-replay");
        let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
        standing_policies(&mut rc);
        rc.attach_state_dir(&dir.0).expect("state dir creatable");
        rc.save_snapshot().expect("initial snapshot writes");
        let at_snapshot = rc.configs().clone();
        for cs in &sample_burst()[1..3] {
            rc.apply_change(cs).expect("change verifies");
        }
        let committed = rc.configs().clone();
        drop(rc); // crash

        let guard = FaultPlan::new().panic_on(FaultPoint::PolicyCheck, 1).install();
        let opts = VerifierOptions { on_failure, ..Default::default() };
        let (mut reopened, report) = RealConfig::open_with(&dir.0, at_snapshot.clone(), opts)
            .unwrap_or_else(|e| panic!("{ctx}: recovery refused to start: {e}"));
        drop(guard);
        assert!(!reopened.needs_rebuild(), "{ctx}: reopened verifier is poisoned");
        let (replayed, discarded, expected) = match on_failure {
            OnFailure::Poison => (0, 2, &at_snapshot),
            OnFailure::Rebuild => (2, 0, &committed),
        };
        assert_eq!(report.replayed, replayed, "{ctx}: {:?}", report.notes);
        assert_eq!(report.discarded_corrupt, discarded, "{ctx}: {:?}", report.notes);
        assert_eq!(reopened.configs(), expected, "{ctx}: wrong recovered state");
        assert!(reopened.journaling(), "{ctx}: durability not re-armed");
        assert_matches_twin(&mut reopened, &ctx);
    }
}

/// A journal append torn mid-burst: the burst still commits in memory
/// (durability degrades, verification does not), and a subsequent crash
/// reopens to the pre-burst snapshot — the torn record is discarded
/// whole, never half-applied.
#[test]
fn torn_append_mid_burst_reopens_to_pre_burst_state() {
    let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let dir = StateDir::new("torn-burst");
    let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
    standing_policies(&mut rc);
    rc.attach_state_dir(&dir.0).expect("state dir creatable");
    rc.save_snapshot().expect("initial snapshot writes");
    let pre_burst = rc.configs().clone();
    let pre_fib = rc.fib();

    let guard = FaultPlan::new().error_on(FaultPoint::StorePartialAppend, 1).install();
    let report = rc.apply_coalesced(&sample_burst());
    drop(guard);
    let report = report.expect("burst verifies in memory despite the torn append");
    assert_eq!(report.coalesced_changes, 4);
    assert!(!rc.needs_rebuild(), "journal failure must not poison the verifier");
    drop(rc); // crash

    let (mut reopened, report) =
        RealConfig::open(&dir.0, pre_burst.clone()).expect("reopen after torn append");
    assert_eq!(report.replayed, 0, "the torn record must not replay");
    assert_eq!(
        reopened.configs(),
        &pre_burst,
        "a torn coalesced record is discarded whole (all-or-nothing)"
    );
    assert_eq!(reopened.fib(), pre_fib);
    assert_matches_twin(&mut reopened, "torn append mid-burst");
}

/// Regression: a failed journal append leaves a persistence warning,
/// and the next successful apply — which re-lowers and reports its own
/// warnings — once replaced the whole warning set, dropping it while
/// journaling was still off. It stays until a snapshot re-enables
/// journaling.
#[test]
fn persistence_warning_outlives_later_applies_until_a_snapshot() {
    use realconfig::ChangeSet;
    let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let dir = StateDir::new("warning");
    let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
    rc.attach_state_dir(&dir.0).expect("state dir creatable");
    rc.save_snapshot().expect("initial snapshot writes");
    let persistence = |rc: &RealConfig| {
        rc.warnings().iter().filter(|w| w.starts_with("persistence: ")).count()
    };

    let guard = FaultPlan::new().error_on(FaultPoint::StorePartialAppend, 1).install();
    rc.apply_change(&ChangeSet::link_cost("r000", "eth0", 50)).expect("first change verifies");
    drop(guard);
    assert!(!rc.journaling(), "a failed append turns journaling off");
    assert_eq!(persistence(&rc), 1, "the failed append is reported: {:?}", rc.warnings());

    rc.apply_change(&ChangeSet::link_cost("r001", "eth0", 60)).expect("second change verifies");
    assert!(!rc.journaling(), "journaling stays off until the next snapshot");
    assert_eq!(persistence(&rc), 1, "the warning outlives the apply: {:?}", rc.warnings());

    rc.save_snapshot().expect("snapshot writes");
    assert!(rc.journaling(), "a snapshot starts a fresh journal");
    assert_eq!(persistence(&rc), 0, "journaling is back on: {:?}", rc.warnings());
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..16, 0usize..4).prop_map(|(dev, iface)| Cmd::ToggleIface { dev, iface }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(1u32), Just(100)])
                .prop_map(|(dev, iface, cost)| Cmd::SetCost { dev, iface, cost }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::StaticDrop { dev, pfx }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::UnStatic { dev, pfx }),
        ],
        2..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY (store fault point, arming delay, crash cadence,
    /// snapshot cadence, churn stream): the verifier is never poisoned
    /// by persistence I/O, every crash reopens to some committed state,
    /// and the reopened verifier equals the never-crashed twin.
    #[test]
    fn crashes_under_store_faults_recover_to_committed_state(
        cmds in arb_cmds(),
        point_idx in 0usize..FaultPoint::STORE.len(),
        fault_nth in 1u64..5,
        crash_every in 1usize..4,
        snap_every in 1usize..4,
    ) {
        let point = FaultPoint::STORE[point_idx];
        let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
        let dir = StateDir::new("prop");
        let (mut rc, _) = RealConfig::new(configs.clone()).expect("ring verifies");
        standing_policies(&mut rc);
        rc.attach_state_dir(&dir.0).expect("state dir creatable");
        rc.save_snapshot().expect("initial snapshot writes");

        let mut history = vec![configs];
        let guard = FaultPlan::new().error_on(point, fault_nth).install();
        for (i, cmd) in cmds.iter().enumerate() {
            let Some(cs) = to_changeset(cmd, &rc) else { continue };
            match rc.apply_change(&cs) {
                Ok(_) => history.push(rc.configs().clone()),
                Err(_) if rc.needs_rebuild() => return, // divergence, covered elsewhere
                Err(_) => {}
            }
            prop_assert!(!rc.needs_rebuild(), "change {} poisoned under {:?}", i, point);

            if (i + 1) % snap_every == 0 {
                let _ = rc.save_snapshot();
                prop_assert!(!rc.needs_rebuild(), "snapshot {} poisoned under {:?}", i, point);
            }
            if (i + 1) % crash_every == 0 {
                let fallback = rc.configs().clone();
                drop(rc);
                let (reopened, report) = RealConfig::open(&dir.0, fallback).unwrap_or_else(
                    |e| panic!("crash {i} under {point:?}: recovery refused to start: {e}"),
                );
                rc = reopened;
                prop_assert!(!rc.needs_rebuild(), "crash {}: reopened poisoned", i);
                prop_assert!(
                    history.iter().any(|h| h == rc.configs()),
                    "crash {} under {:?}: recovered configs match no committed state \
                     (source {:?}, notes {:?})",
                    i, point, report.source, report.notes
                );
                assert_matches_twin(&mut rc, &format!("crash {i} under {point:?}"));
            }
        }
        drop(guard);

        // The survivor must still be able to write durable state and
        // come back from it cleanly once the fault clears.
        rc.save_snapshot().expect("post-chaos snapshot writes");
        let fallback = rc.configs().clone();
        let expected_fib = rc.fib();
        drop(rc);
        let (reopened, _) = RealConfig::open(&dir.0, fallback).expect("clean reopen");
        prop_assert_eq!(reopened.fib(), expected_fib, "clean reopen lost state");
    }
}
