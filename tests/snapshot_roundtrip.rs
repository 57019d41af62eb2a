//! Snapshot round-trip soundness: a verifier restored from its own
//! durable state must be indistinguishable from the live verifier that
//! wrote it — same configurations, FIB, model shape, policy verdicts —
//! and must keep verifying identically afterwards. Exercised on a ring
//! and, property-style, across arbitrary churn prefixes split between
//! the snapshot and the journal.

mod common;

use common::{assert_same_state, to_changeset, Cmd};
use proptest::prelude::*;
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{host_prefix, ring};
use rc_netcfg::ast::{AclAction, AclEntry};
use realconfig::{
    ChangeOp, ChangeSet, Error, Prefix, RealConfig, RestoreSource, VerifierOptions,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique-per-use scratch state directory, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rc-roundtrip-{tag}-{}-{}",
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

/// The standing policies every verifier in this suite registers, in
/// the same deterministic order.
fn standing_policies(rc: &mut RealConfig) {
    let names: Vec<String> = rc.configs().keys().cloned().collect();
    for (i, s) in names.iter().take(3).enumerate() {
        let di = names.len() - 1 - i;
        let d = names[di].clone();
        rc.require_reachability(s, &d, host_prefix(di as u32));
    }
    rc.recheck_policies();
}

/// An ACL entry the parser refuses is refused by the change path too,
/// so it never reaches a snapshot. Unbound (nothing compiles it) or
/// matching ports on a protocol without them, it used to commit, and
/// the snapshot after it held configurations that read back only as
/// the snapshot before.
#[test]
fn an_acl_entry_the_parser_refuses_never_reaches_a_snapshot() {
    let configs = build_configs(&ring(4), ProtocolChoice::Ospf);
    let (mut live, _) = RealConfig::new(configs.clone()).expect("ring verifies");
    let dir = StateDir::new("refused-acl");
    live.attach_state_dir(&dir.0).expect("state dir creatable");
    live.save_snapshot().expect("snapshot writes");

    for (proto, ports) in [(Some(6), (90, 80)), (None, (80, 90))] {
        let entry = AclEntry {
            seq: 10,
            action: AclAction::Deny,
            proto,
            src: Prefix::DEFAULT,
            dst: host_prefix(2),
            dst_ports: Some(ports),
        };
        let op = ChangeOp::AddAclEntry { device: "r000".into(), acl: "WEB".into(), entry };
        match live.apply_change(&ChangeSet { ops: vec![op] }) {
            Err(Error::Change(_)) => {}
            other => panic!("{proto:?} {ports:?}: expected Change error, got: {other:?}"),
        }
    }
    let seq = live.save_snapshot().expect("snapshot writes");
    let (restored, report) = RealConfig::open(&dir.0, configs).expect("restore starts");
    assert!(
        matches!(report.source, RestoreSource::Snapshot { seq: s } if s == seq),
        "expected snapshot {seq}, got {:?} (notes: {:?})",
        report.source,
        report.notes
    );
    assert_same_state(&live, &restored, &[], "after restore");
}

/// Snapshot → restore → continue verifying.
#[test]
fn snapshot_roundtrip_is_lossless_on_the_bdd_backend() {
    let configs = build_configs(&ring(6), ProtocolChoice::Ospf);
    let (mut live, _) = RealConfig::new(configs.clone()).expect("ring verifies");
    standing_policies(&mut live);

    let dir = StateDir::new("roundtrip");
    live.attach_state_dir(&dir.0).expect("state dir creatable");
    live.save_snapshot().expect("snapshot writes");

    let (mut restored, report) =
        RealConfig::open(&dir.0, configs).expect("restore never refuses to start");
    assert!(
        matches!(report.source, RestoreSource::Snapshot { .. }),
        "expected a snapshot restore, got {:?} (notes: {:?})",
        report.source,
        report.notes
    );
    assert_eq!(report.replayed, 0, "fresh journal has nothing to replay");
    assert_same_state(&live, &restored, &[], "after restore");
    assert_eq!(live.options(), restored.options(), "after restore: options");

    // The restored verifier is not a dead copy: the same churn applied
    // to both sides must keep them in lockstep, reports included.
    for i in 0..4 {
        let cmd = Cmd::ToggleIface { dev: i * 3 + 1, iface: i };
        let Some(cs) = to_changeset(&cmd, &live) else { continue };
        let live_report = live.apply_change(&cs).expect("live change verifies");
        let restored_report = restored.apply_change(&cs).expect("restored change verifies");
        // Timings aside, the incremental reports must agree field for
        // field: both sides saw the same deltas through every stage.
        let shape = |r: &realconfig::ChangeReport| {
            (
                (r.lines_inserted, r.lines_deleted, r.fact_changes),
                (r.rules_inserted, r.rules_removed),
                (r.ec_moves, r.ec_splits, r.affected_ecs),
                (r.affected_pairs, r.changed_pairs, r.total_pairs, r.policies_checked),
                (r.newly_violated.clone(), r.newly_satisfied.clone(), r.warnings.clone()),
            )
        };
        assert_eq!(
            shape(&live_report),
            shape(&restored_report),
            "change {i}: incremental reports diverged after restore"
        );
        assert_same_state(&live, &restored, &[], &format!("after change {i}"));
    }
}

// ---- The recovery ladder, rung by rung ----

fn ring_configs(n: u32) -> BTreeMap<String, rc_netcfg::DeviceConfig> {
    build_configs(&ring(n), ProtocolChoice::Ospf)
}

/// A live verifier over `ring(n)` with a first snapshot in `dir`.
fn live_with_snapshot(n: u32, dir: &StateDir) -> RealConfig {
    let (mut live, _) = RealConfig::new(ring_configs(n)).expect("ring verifies");
    standing_policies(&mut live);
    live.attach_state_dir(&dir.0).expect("state dir creatable");
    live.save_snapshot().expect("snapshot writes");
    live
}

fn flip_middle_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("file readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(path, &bytes).expect("file writable");
}

#[test]
fn open_on_empty_dir_is_a_cold_start() {
    let dir = StateDir::new("cold");
    let (rc, report) = RealConfig::open(&dir.0, ring_configs(4)).expect("cold start");
    assert_eq!(report.source, RestoreSource::ColdStart);
    assert_eq!(report.replayed, 0);
    assert!(rc.journaling(), "cold start should leave a snapshot + journal");
    assert_eq!(rc.snapshot_seq(), 1);
}

#[test]
fn snapshot_restores_identically_and_replays_the_journal() {
    let dir = StateDir::new("replay");
    let mut live = live_with_snapshot(5, &dir);
    // Two journaled changes after the snapshot.
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    let up = realconfig::ChangeOp::EnableInterface { device: "r001".into(), iface: "eth1".into() };
    live.apply_change(&ChangeSet { ops: vec![up] }).expect("change verifies");
    assert_eq!(live.journaled_changes(), 2);

    let (restored, report) = RealConfig::open(&dir.0, BTreeMap::new()).expect("restore");
    assert_eq!(report.source, RestoreSource::Snapshot { seq: 1 });
    assert_eq!(report.replayed, 2);
    assert_eq!(report.discarded_corrupt, 0);
    assert_same_state(&live, &restored, &[], "after replay");
    assert!(restored.journaling());
}

/// Replay is one fold and one verified apply however long the journal
/// is: a 12-record tail reopens with a single incremental check on the
/// restored verifier's books, and the live verifier's state.
#[test]
fn a_long_journal_tail_replays_as_one_apply() {
    let dir = StateDir::new("one-replay");
    let mut live = live_with_snapshot(5, &dir);
    for i in 0..12 {
        let cmd = Cmd::ToggleIface { dev: i * 3 + 1, iface: i };
        let cs = to_changeset(&cmd, &live).expect("every ring device has eth interfaces");
        live.apply_change(&cs).expect("change verifies");
    }
    assert_eq!(live.journaled_changes(), 12);

    let (restored, report) = RealConfig::open(&dir.0, BTreeMap::new()).expect("restore");
    assert_eq!(report.source, RestoreSource::Snapshot { seq: 1 });
    assert_eq!((report.replayed, report.discarded_corrupt), (12, 0), "{:?}", report.notes);
    let checks = &restored.metrics_snapshot().histograms["policy.check_incremental_us"];
    assert_eq!(checks.count, 1, "12 records fold into one verified apply");
    assert_same_state(&live, &restored, &[], "after a 12-record replay");
    assert!(restored.journaling());
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_previous() {
    let dir = StateDir::new("ladder");
    let mut live = live_with_snapshot(4, &dir);
    let twin_fib = live.fib();
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    live.save_snapshot().expect("snapshot writes");
    flip_middle_byte(&rc_store::snapshot_path(&dir.0, 2));

    let (restored, report) = RealConfig::open(&dir.0, BTreeMap::new()).expect("restore");
    assert_eq!(report.source, RestoreSource::PreviousSnapshot { seq: 1 });
    assert_eq!(report.snapshots_rejected, 1);
    assert_eq!(restored.fib(), twin_fib);
    // Restore re-based on a fresh snapshot, so journaling is live.
    assert!(restored.journaling());
}

#[test]
fn all_snapshots_corrupt_rebuilds_from_fallback() {
    let dir = StateDir::new("rebuilt");
    let mut live = live_with_snapshot(4, &dir);
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    live.save_snapshot().expect("snapshot writes");
    for (_, path) in rc_store::list_snapshots(&dir.0).expect("state dir lists") {
        flip_middle_byte(&path);
    }
    let (restored, report) = RealConfig::open(&dir.0, ring_configs(4)).expect("rebuild");
    assert_eq!(report.source, RestoreSource::Rebuilt);
    assert_eq!(report.snapshots_rejected, 2);
    let (twin, _) = RealConfig::new(ring_configs(4)).expect("ring verifies");
    assert_eq!(restored.fib(), twin.fib());
    assert!(restored.journaling());
}

#[test]
fn torn_journal_tail_is_discarded_and_rebased() {
    let dir = StateDir::new("torn-tail");
    let mut live = live_with_snapshot(5, &dir);
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    live.apply_change(&ChangeSet::link_failure("r003", "eth1")).expect("change verifies");

    // Tear the last record: chop bytes off the journal tail.
    let jpath = rc_store::journal_path(&dir.0);
    let bytes = std::fs::read(&jpath).expect("journal readable");
    std::fs::write(&jpath, &bytes[..bytes.len() - 3]).expect("journal writable");

    // Twin: only the first (durable) change.
    let (mut twin, _) = RealConfig::new(ring_configs(5)).expect("ring verifies");
    standing_policies(&mut twin);
    twin.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");

    let (restored, report) = RealConfig::open(&dir.0, BTreeMap::new()).expect("restore");
    assert_eq!(report.source, RestoreSource::Snapshot { seq: 1 });
    assert_eq!(report.replayed, 1);
    assert_eq!(report.discarded_corrupt, 1);
    assert_same_state(&twin, &restored, &[], "after torn-tail restore");
    // Journal no longer matches state: re-based on snapshot 2.
    assert_eq!(restored.snapshot_seq(), 2);
    assert!(restored.journaling());
}

#[test]
fn persistence_is_off_until_a_state_dir_is_attached() {
    let (mut rc, _) = RealConfig::new(ring_configs(4)).expect("ring verifies");
    assert!(rc.save_snapshot().is_err());
    assert!(!rc.journaling());
    assert_eq!(rc.journaled_changes(), 0);
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    assert!(
        !rc.metrics_snapshot().counters.keys().any(|k| k.starts_with("store.")),
        "no persistence in use, but store.* counters appeared"
    );
}

/// A verifier reopened with explicit options keeps the ones a snapshot
/// cannot record (worker count, failure policy) — through the restore
/// and through a later rebuild — while the recorded ones (update order
/// here) still come from the snapshot.
#[test]
fn reopen_keeps_options_the_snapshot_does_not_record() {
    let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let opts = VerifierOptions {
        order: realconfig::UpdateOrder::DeleteFirst,
        threads: Some(1),
        on_failure: realconfig::OnFailure::Rebuild,
    };
    let (mut live, _) = RealConfig::with_options(configs.clone(), opts).expect("ring verifies");
    let dir = StateDir::new("options");
    live.attach_state_dir(&dir.0).expect("state dir creatable");
    live.save_snapshot().expect("snapshot writes");
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");

    // The caller asks for the default order; the snapshot's wins.
    let asked = VerifierOptions { order: realconfig::UpdateOrder::InsertFirst, ..opts };
    let (mut reopened, report) = RealConfig::open_with(&dir.0, configs.clone(), asked)
        .expect("restore never refuses to start");
    assert!(matches!(report.source, RestoreSource::Snapshot { .. }), "{:?}", report.notes);
    assert_same_state(&live, &reopened, &[], "after reopen");
    reopened.rebuild().expect("rebuild succeeds");
    assert_eq!(reopened.options(), &opts, "a rebuild reads the same options");
    assert_eq!(reopened.fib(), live.fib(), "after rebuild");

    // A plain `open` has nothing to reinstate them from: defaults,
    // except what the snapshot records.
    let (plain, _) = RealConfig::open(&dir.0, configs).expect("restore never refuses to start");
    assert_eq!(plain.options(), &VerifierOptions { order: opts.order, ..Default::default() });
}

/// The on-disk formats are a compatibility surface: for default
/// options, snapshot and journal bytes must stay exactly what the
/// current format versions write (length and CRC-32 of each file on
/// this scenario; the snapshot pins were re-recorded at snapshot
/// version 3, the journal's are the first release's).
#[test]
fn snapshot_and_journal_bytes_are_pinned() {
    let configs = build_configs(&ring(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
    rc.require_reachability("r000", "r002", host_prefix(2)).expect("devices exist");
    rc.recheck_policies();
    let dir = StateDir::new("golden");
    rc.attach_state_dir(&dir.0).expect("state dir creatable");
    rc.save_snapshot().expect("snapshot writes");
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    rc.apply_coalesced(&[
        ChangeSet::link_cost("r000", "eth0", 50),
        ChangeSet::link_cost("r002", "eth1", 7),
    ])
    .expect("burst verifies");
    let pin = |path: std::path::PathBuf| {
        let bytes = std::fs::read(&path).expect("store file readable");
        (bytes.len(), rc_store::crc32(&bytes))
    };
    assert_eq!(pin(rc_store::snapshot_path(&dir.0, 1)), (1456, 0x5894_a9a9));
    assert_eq!(pin(rc_store::journal_path(&dir.0)), (992, 0x3867_2ef9));
    rc.save_snapshot().expect("snapshot writes");
    assert_eq!(pin(rc_store::snapshot_path(&dir.0, 2)), (1467, 0xae0e_ebef));
}

/// Snapshots whose header names an older format version are not read:
/// version 1's checker section also carried the derived pair and port
/// indexes, and version 2's model and checker sections carried the whole
/// model, checker and predicate arena. The verifier opens through the
/// rebuild rung, and the report says why.
#[test]
fn version_one_snapshot_opens_through_the_rebuild_rung() {
    for version in [1u32, 2] {
        let dir = StateDir::new(&format!("v{version}"));
        let live = live_with_snapshot(4, &dir);
        let path = rc_store::snapshot_path(&dir.0, 1);
        let mut bytes = std::fs::read(&path).expect("snapshot readable");
        // The format version follows the 8-byte magic.
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).expect("snapshot writable");

        let (restored, report) = RealConfig::open(&dir.0, ring_configs(4)).expect("rebuild");
        assert_eq!(report.source, RestoreSource::Rebuilt, "version {version}");
        assert_eq!(report.snapshots_rejected, 1, "version {version}");
        let why = format!("format version {version}");
        assert!(
            report.notes.iter().any(|n| n.contains(&why)),
            "no version note: {:?}",
            report.notes
        );
        // Policies live in snapshots only; configs and what they compute
        // come back from the fallback.
        assert_eq!(restored.configs(), live.configs(), "version {version}");
        assert_eq!(restored.fib(), live.fib(), "version {version}");
        assert!(restored.journaling(), "version {version}");
    }
}

/// The policies decoder reads bytes it cannot trust. Every truncation
/// of a real CHECKER section must come back as an `Err`, a policy naming
/// a node the registry does not hold is refused, and 256 seeded byte
/// flips must never panic.
#[test]
fn checker_decoder_survives_truncation_and_byte_flips() {
    use rand::{Rng, SeedableRng};
    use rc_store::Reader;

    let dir = StateDir::new("decoder");
    let mut live = live_with_snapshot(5, &dir);
    live.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("change verifies");
    live.save_snapshot().expect("snapshot writes");
    let image = std::fs::read(rc_store::snapshot_path(&dir.0, 2)).expect("snapshot readable");
    let sections = rc_store::decode_snapshot(&image).expect("snapshot decodes");
    // Section tags 2 (REGISTRY) and 5 (CHECKER), see `persist.rs`.
    let section = |tag: u32| &sections.iter().find(|(t, _)| *t == tag).expect("section").1;
    let registered = Reader::new(section(2)).len_prefix().expect("node name count");
    let checker = section(5);

    let decode = |bytes: &[u8]| {
        let mut r = Reader::new(bytes);
        let policies = rc_policy::PolicyChecker::decode_policies(&mut r, registered)?;
        r.done().map(|()| policies)
    };
    assert_eq!(decode(checker).expect("intact section decodes"), live.policy_specs());

    for cut in 0..checker.len() {
        assert!(decode(&checker[..cut]).is_err(), "truncation to {cut} bytes decoded");
    }
    // Targeted: the first policy's source (after the count and the
    // policy tag), rewritten to the first id the registry does not hold
    // and to the largest the wire holds. Both are refused.
    let foreign = [
        (registered as u32, "not in the registry"),
        (u32::MAX, "past the dense tables' bound"),
    ];
    for (id, why) in foreign {
        let mut bytes = checker.clone();
        bytes[9..13].copy_from_slice(&id.to_le_bytes());
        let err = decode(&bytes).expect_err("a foreign node id decoded");
        assert!(err.0.contains(why), "node id {id}: {err}");
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xdec0de);
    for _ in 0..256 {
        let mut bytes = checker.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= rng.gen_range(1..=255u8);
        let _ = decode(&bytes);
    }
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
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY churn stream and ANY split point: snapshot after the
    /// prefix, journal the suffix, and a restore (snapshot + replay)
    /// must equal the live verifier that never went down.
    #[test]
    fn restore_replays_any_churn_split_losslessly(
        cmds in arb_cmds(),
        split_seed in 0usize..64,
    ) {
        let configs = build_configs(&ring(5), ProtocolChoice::Ospf);
        let (mut live, _) = RealConfig::new(configs.clone()).expect("ring verifies");
        standing_policies(&mut live);

        let dir = StateDir::new("prop");
        live.attach_state_dir(&dir.0).expect("state dir creatable");

        // Commits before `split` land only in the snapshot; commits
        // after it land only in the journal.
        let split = split_seed % (cmds.len() + 1);
        let mut journaled = 0usize;
        for (i, cmd) in cmds.iter().enumerate() {
            if i == split {
                live.save_snapshot().expect("snapshot writes");
            }
            let Some(cs) = to_changeset(cmd, &live) else { continue };
            match live.apply_change(&cs) {
                Ok(_) => {
                    if i >= split {
                        journaled += 1;
                    }
                }
                // Divergence poisoning is covered by its own suite;
                // this property is about fault-free round-trips.
                Err(_) if live.needs_rebuild() => return,
                Err(_) => {}
            }
        }
        if split == cmds.len() {
            live.save_snapshot().expect("snapshot writes");
        }

        let (restored, report) =
            RealConfig::open(&dir.0, configs).expect("restore never refuses to start");
        prop_assert!(
            matches!(report.source, RestoreSource::Snapshot { .. }),
            "expected a snapshot restore, got {:?} (notes: {:?})",
            report.source,
            report.notes
        );
        prop_assert_eq!(report.replayed, journaled, "replay covers exactly the journaled suffix");
        prop_assert_eq!(report.discarded_corrupt, 0, "fault-free journal has no corrupt records");
        assert_same_state(&live, &restored, &[], "after split restore");
    }
}
