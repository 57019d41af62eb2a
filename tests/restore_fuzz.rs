//! No bytes in a state directory make [`RealConfig::open`] panic. The
//! persistence suites flip bits and truncate files; these properties
//! feed the recovery ladder whole garbage snapshots and CRC-valid
//! journal records whose payloads are well framed but carry mangled
//! configuration text, so the record decoder and the config parser see
//! input no checksum will catch. Two CRC-valid snapshots pin the
//! MODEL section's predicate-store tag: the retired atoms tag restores
//! onto BDDs, and an unknown tag steps the ladder down.

use proptest::prelude::*;
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::printer::print_config;
use rc_netcfg::topology::fat_tree;
use rc_netcfg::types::Prefix;
use rc_netcfg::DeviceConfig;
use rc_routing::route::FibAction;
use rc_store::{decode_snapshot, encode_snapshot, journal_path, snapshot_path, Journal, Writer};
use realconfig::{ChangeSet, PacketClass, Policy, RealConfig, RestoreSource};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Unique-per-use scratch state directory, removed on drop.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rc-restore-fuzz-{tag}-{}-{}",
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

/// What a verifier computes: FIB, rule count and pair count. The FIB
/// is keyed by device and interface name, because ids are interned in
/// history order: a restored verifier interns a record's new names
/// after the snapshot's, a fresh build in lowering order.
type Outcome = (BTreeSet<(String, Prefix, String)>, usize, usize);

fn outcome(rc: &RealConfig) -> Outcome {
    let fib = rc
        .fib()
        .into_iter()
        .map(|e| {
            let action = match e.action {
                FibAction::Forward(i) => format!("forward {}", rc.iface_name(i)),
                FibAction::Local(i) => format!("local {}", rc.iface_name(i)),
                FibAction::Drop => "drop".to_string(),
            };
            (rc.node_name(e.node).to_string(), e.prefix, action)
        })
        .collect();
    (fib, rc.num_rules(), rc.num_pairs())
}

/// A k=4 OSPF fat tree and the files of a state directory holding two
/// snapshots of it (seq 1, then seq 2 after one link failure) and an
/// empty journal extending seq 2. Built once; each case copies it.
struct Fixture {
    configs: BTreeMap<String, DeviceConfig>,
    files: Vec<(String, Vec<u8>)>,
    /// The configurations of snapshot 2, and a fresh build's outcome
    /// over them (most mangled records are rejected, leaving these).
    newest: BTreeMap<String, DeviceConfig>,
    newest_outcome: Outcome,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let topo = fat_tree(4);
        let configs = build_configs(&topo, ProtocolChoice::Ospf);
        let (mut rc, _) = RealConfig::new(configs.clone()).expect("fat tree verifies");
        let dir = StateDir::new("fixture");
        rc.attach_state_dir(&dir.0).expect("state dir creatable");
        assert_eq!(rc.save_snapshot().expect("snapshot writes"), 1);
        let link = &topo.links[0].a;
        rc.apply_change(&ChangeSet::link_failure(&link.device, &link.iface)).expect("verifies");
        assert_eq!(rc.save_snapshot().expect("snapshot writes"), 2);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir.0)
            .expect("state dir lists")
            .map(|e| {
                let path = e.expect("entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("state file reads"))
            })
            .collect();
        files.sort();
        let newest = rc.configs().clone();
        let newest_outcome = outcome(&RealConfig::new(newest.clone()).expect("verifies").0);
        Fixture { configs, files, newest, newest_outcome }
    })
}

/// A fresh copy of the fixture's state directory.
fn state_dir(tag: &str) -> StateDir {
    let dir = StateDir::new(tag);
    std::fs::create_dir_all(&dir.0).expect("state dir creatable");
    for (name, bytes) in &fixture().files {
        std::fs::write(dir.0.join(name), bytes).expect("state file writes");
    }
    dir
}

/// One line-level edit of a printed config. Indices wrap modulo the
/// line count.
#[derive(Clone, Debug)]
enum Edit {
    Drop(u16),
    Duplicate(u16),
    Swap(u16, u16),
    /// Add `by` to every digit of the line, modulo 10.
    Digits(u16, u8),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<u16>().prop_map(Edit::Drop),
        any::<u16>().prop_map(Edit::Duplicate),
        (any::<u16>(), any::<u16>()).prop_map(|(i, j)| Edit::Swap(i, j)),
        (any::<u16>(), 1u8..10).prop_map(|(i, by)| Edit::Digits(i, by)),
    ]
}

/// A journal record: which device's printed config to mangle, the
/// edits, and (one time in four) another device whose name it is
/// stored under.
fn record() -> impl Strategy<Value = (u16, Vec<Edit>, Option<u16>)> {
    let stored_as = prop_oneof![3 => Just(None), 1 => any::<u16>().prop_map(Some)];
    (any::<u16>(), prop::collection::vec(edit(), 1..=6), stored_as)
}

fn mangle(text: &str, edits: &[Edit]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for e in edits {
        let n = lines.len();
        if n == 0 {
            break;
        }
        match *e {
            Edit::Drop(i) => {
                lines.remove(i as usize % n);
            }
            Edit::Duplicate(i) => {
                let line = lines[i as usize % n].clone();
                lines.insert(i as usize % n, line);
            }
            Edit::Swap(i, j) => lines.swap(i as usize % n, j as usize % n),
            Edit::Digits(i, by) => {
                let line = &mut lines[i as usize % n];
                *line = line
                    .chars()
                    .map(|c| match c.to_digit(10) {
                        Some(d) => char::from_digit((d + by as u32) % 10, 10).unwrap(),
                        None => c,
                    })
                    .collect();
            }
        }
    }
    lines.join("\n") + "\n"
}

/// A journal payload as the verifier frames one: upserted devices as
/// (name, printed config) pairs, then removed device names.
fn delta_payload(name: &str, text: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.len_prefix(1);
    w.str(name);
    w.str(text);
    w.len_prefix(0);
    w.finish()
}

fn open(dir: &Path) -> (RealConfig, realconfig::RestoreReport) {
    RealConfig::open(dir, fixture().configs.clone()).expect("open never refuses to start")
}

/// Overwrite snapshot 2's MODEL section (tag 4) with `model` and, if
/// given, its CHECKER section (tag 5) with `checker`.
fn rewrite_snapshot_2(dir: &Path, model: u8, checker: Option<Vec<u8>>) {
    let path = snapshot_path(dir, 2);
    let mut sections = decode_snapshot(&std::fs::read(&path).expect("snapshot reads"))
        .expect("snapshot decodes");
    for (tag, payload) in &mut sections {
        match (*tag, &checker) {
            (4, _) => *payload = vec![model],
            (5, Some(checker)) => *payload = checker.clone(),
            _ => {}
        }
    }
    std::fs::write(&path, encode_snapshot(&sections)).expect("snapshot overwrites");
}

/// A snapshot written when the dst-IP interval "atoms" store existed
/// records MODEL tag 1. It holds no predicate state, so it restores
/// onto BDDs like tag 0 — including a flow policy with a protocol,
/// which the atoms store could not compile — and equals a fresh
/// verifier with the same policy.
#[test]
fn a_snapshot_tagged_with_the_atoms_store_restores_onto_bdds() {
    let dir = state_dir("atoms-tag");
    let mut checker = Writer::new();
    checker.len_prefix(1);
    checker.u8(3); // LoopFree
    checker.u8(2); // Flow { proto: Some(6), dst_prefix: None, dst_port: None }
    checker.raw(&[1, 6, 0, 0]);
    checker.u8(1); // satisfied
    rewrite_snapshot_2(&dir.0, 1, Some(checker.finish()));

    let (rc, report) = open(&dir.0);
    assert_eq!(report.source, RestoreSource::Snapshot { seq: 2 }, "{:?}", report.notes);
    assert_eq!(report.snapshots_rejected, 0, "{:?}", report.notes);
    let policy = Policy::LoopFree {
        class: PacketClass::Flow { proto: Some(6), dst_prefix: None, dst_port: None },
    };
    let (mut fresh, _) = RealConfig::new(fixture().newest.clone()).expect("verifies");
    fresh.add_policy(policy.clone());
    fresh.recheck_policies();
    assert_eq!(rc.policy_specs(), vec![(policy, true)]);
    assert_eq!(rc.policy_specs(), fresh.policy_specs());
    assert_eq!(outcome(&rc), outcome(&fresh));
}

/// A MODEL tag no version wrote is a decode error: the newest snapshot
/// is rejected and the ladder restores the previous one.
#[test]
fn an_unknown_predicate_store_tag_falls_to_the_previous_snapshot() {
    let dir = state_dir("unknown-tag");
    rewrite_snapshot_2(&dir.0, 2, None);
    let (_, report) = open(&dir.0);
    assert_eq!(report.source, RestoreSource::PreviousSnapshot { seq: 1 }, "{:?}", report.notes);
    assert_eq!(report.snapshots_rejected, 1, "{:?}", report.notes);
}

proptest! {
    /// Garbage over the newer snapshot: the ladder steps down to the
    /// older one.
    #[test]
    fn garbage_newest_snapshot_falls_back_to_the_previous(
        bytes in prop::collection::vec(any::<u8>(), 0..=300),
    ) {
        let dir = state_dir("snapshot");
        std::fs::write(snapshot_path(&dir.0, 2), &bytes).expect("snapshot overwrites");
        let (_, report) = open(&dir.0);
        prop_assert_eq!(report.source, RestoreSource::PreviousSnapshot { seq: 1 });
        prop_assert_eq!(report.snapshots_rejected, 1);
    }

    /// CRC-valid journal records carrying mangled configs: the newest
    /// snapshot is restored, whatever of the journal applies is
    /// applied, and the result equals a fresh build over the
    /// configurations it ended with.
    #[test]
    fn mangled_journal_records_restore_a_consistent_verifier(
        records in prop::collection::vec(record(), 1..=3),
    ) {
        let dir = state_dir("journal");
        let fx = fixture();
        let configs = &fx.newest;
        let names: Vec<&String> = configs.keys().collect();
        let journal = Journal::create(&journal_path(&dir.0), 2).expect("journal creates");
        for (device, edits, stored_as) in &records {
            let name = names[*device as usize % names.len()];
            let text = mangle(&print_config(&configs[name]), edits);
            let stored_as = stored_as.map_or(name, |j| names[j as usize % names.len()]);
            journal.append(&delta_payload(stored_as, &text)).expect("record appends");
        }

        let (rc, report) = open(&dir.0);
        prop_assert_eq!(report.source, RestoreSource::Snapshot { seq: 2 });
        let fresh = if rc.configs() == &fx.newest {
            fx.newest_outcome.clone()
        } else {
            let (fresh, _) = RealConfig::new(rc.configs().clone())
                .expect("restored configs verify from scratch");
            outcome(&fresh)
        };
        prop_assert_eq!(outcome(&rc), fresh);
    }
}
