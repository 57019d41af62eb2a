//! Durable warm state: checksummed snapshots, an append-only apply
//! journal, and the crash-recovery ladder.
//!
//! # Snapshot format
//!
//! A snapshot is an [`rc_store`] section container (magic, version,
//! per-section `tag + length + payload + CRC32`) holding five sections:
//!
//! | tag | section  | contents                                          |
//! |-----|----------|---------------------------------------------------|
//! | 1   | META     | update order, retired full-scan flag, retired auto-compact field |
//! | 2   | REGISTRY | interned node / interface names, in id order      |
//! | 3   | CONFIGS  | last-good configurations as canonical printed text|
//! | 4   | MODEL    | [`ApkModel::encode_state`] (includes the predicate store) |
//! | 5   | CHECKER  | [`PolicyChecker::encode_state`]: devices, links, one analysis per EC in EC order, policies with verdicts |
//!
//! The registry is serialized by name *in id order* because interning
//! is append-only and history-dependent: rebuilding it verbatim keeps
//! every `NodeId` / `IfaceId` embedded in the model and checker
//! sections valid.
//!
//! Sections hold state, not what is derived from it: the model's
//! indexes and the checker's pair counts and port index are rebuilt on
//! decode, and the checker's analysis count must equal the model's EC
//! count. META's last three fields (`0`, `1`, [`DEFAULT_AUTO_COMPACT`])
//! are vestigial — nothing reads the full-scan flag since the EC index
//! stopped being optional, nor the auto-compact field since compaction
//! stopped being scheduled — but stay byte-for-byte, because the `perf`
//! benchmark writes the section by hand and byte-compares whole
//! snapshots.
//!
//! # Journal
//!
//! Each committed apply appends one checksummed record — the
//! device-granularity config delta (upserted device texts + removed
//! names) — to `journal.rcj`, which names the snapshot sequence it
//! extends. Replay folds the records into the configurations they
//! lead to ([`ConfigDelta::apply_to`]) and verifies that as one normal
//! incremental [`RealConfig::apply_configs`]: a restored verifier
//! reaches the committed state of one that never crashed, and the
//! intermediate states, which nobody observes, are not re-verified. If
//! an append fails (disk full, fsync error), journaling is disabled
//! until the next snapshot rather than leaving a gap: the durable state
//! is always an exact prefix of the applied changes.
//!
//! # Recovery ladder
//!
//! [`RealConfig::open`] never refuses to start:
//!
//! 1. newest snapshot + journal replay (torn tails tolerated);
//! 2. on any corruption, the previous retained snapshot;
//! 3. on any corruption there too, a full rebuild from the caller's
//!    fallback configurations.
//!
//! Which rung succeeded — and how many journal records were replayed
//! or discarded — comes back in the [`RestoreReport`].

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rc_apkeep::{ApkModel, UpdateOrder};
use rc_netcfg::facts::Registry;
use rc_netcfg::parser::parse_config;
use rc_netcfg::printer::print_config;
use rc_netcfg::DeviceConfig;
use rc_policy::PolicyChecker;
use rc_store::{
    atomic_write, decode_snapshot, encode_snapshot, journal_path, list_snapshots,
    prune_snapshots, read_journal, snapshot_path, Journal, Reader, StoreError, WireError, Writer,
};

use super::build::{DataPlane, Stages};
use super::{ConfigDelta, Error, RealConfig, VerifierOptions, DEFAULT_AUTO_COMPACT};

/// Section tags inside a snapshot container.
const SEC_META: u32 = 1;
const SEC_REGISTRY: u32 = 2;
const SEC_CONFIGS: u32 = 3;
const SEC_MODEL: u32 = 4;
const SEC_CHECKER: u32 = 5;

/// How many snapshots to retain on disk. Two gives the recovery ladder
/// its middle rung: if the newest snapshot is torn, the previous one is
/// still there.
const KEEP_SNAPSHOTS: usize = 2;

/// Where a restored verifier's state came from (the rung of the
/// recovery ladder that succeeded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RestoreSource {
    /// The newest snapshot decoded cleanly (journal replay may still
    /// have discarded a torn tail — see
    /// [`RestoreReport::discarded_corrupt`]).
    Snapshot { seq: u64 },
    /// The newest snapshot was corrupt; the previous retained snapshot
    /// was used instead. Its journal (if any) belongs to the newer
    /// snapshot and is not replayed.
    PreviousSnapshot { seq: u64 },
    /// Every snapshot was corrupt or unreadable; the verifier was
    /// rebuilt in full from the fallback configurations. Degraded but
    /// running.
    Rebuilt,
    /// The state directory held no snapshots at all (first boot).
    #[default]
    ColdStart,
}

/// Outcome of [`RealConfig::open`]: which ladder rung produced the
/// verifier and what the journal replay saw.
#[derive(Clone, Debug, Default)]
pub struct RestoreReport {
    /// The ladder rung that succeeded.
    pub source: RestoreSource,
    /// Journal records replayed: folded into one incremental apply.
    pub replayed: usize,
    /// Journal records (or whole artifacts) dropped as corrupt: torn
    /// journal tails, records for a different snapshot, records whose
    /// replay failed.
    pub discarded_corrupt: usize,
    /// Snapshots that failed to decode before one succeeded.
    pub snapshots_rejected: usize,
    /// Human-readable notes: each degradation encountered, and how many
    /// journal records the replay folded into its one apply.
    pub notes: Vec<String>,
    /// Wall-clock time of the whole open, including any journal replay.
    pub elapsed: std::time::Duration,
}

/// Per-verifier persistence handle: the state directory, the snapshot
/// sequence the journal extends, and the journal itself (`None` when
/// journaling is disabled — before the first snapshot, or after an
/// append failure).
#[derive(Debug)]
pub(super) struct StoreState {
    dir: PathBuf,
    /// Sequence number of the newest snapshot written or restored.
    seq: u64,
    journal: Option<Journal>,
    /// Records appended to the current journal (durable changes since
    /// the last snapshot).
    appended: u64,
}

fn write_names(w: &mut Writer, names: &[String]) {
    w.len_prefix(names.len());
    for name in names {
        w.str(name);
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    (0..r.len_prefix()?).map(|_| r.str().map(str::to_string)).collect()
}

/// `(hostname, config)` pairs as journal records and the snapshot
/// CONFIGS section store them: each config as canonical printed text.
fn write_configs<'a>(
    w: &mut Writer,
    configs: impl ExactSizeIterator<Item = (&'a String, &'a DeviceConfig)>,
) {
    w.len_prefix(configs.len());
    for (name, cfg) in configs {
        w.str(name);
        w.str(&print_config(cfg));
    }
}

/// Inverse of [`write_configs`], re-parsing each text. Unparseable
/// text or a hostname mismatch is an error.
fn read_configs(r: &mut Reader<'_>) -> Result<Vec<(String, DeviceConfig)>, WireError> {
    let mut configs = Vec::new();
    for _ in 0..r.len_prefix()? {
        let name = r.str()?.to_string();
        let cfg = parse_config(r.str()?)
            .map_err(|e| WireError(format!("stored config for {name:?} unparseable: {e}")))?;
        if cfg.hostname != name {
            return Err(WireError(format!(
                "stored config {name:?} names itself {:?}",
                cfg.hostname
            )));
        }
        configs.push((name, cfg));
    }
    Ok(configs)
}

/// One journal record: upserted devices, then removed device names.
pub(super) fn encode_delta(delta: &ConfigDelta) -> Vec<u8> {
    let mut w = Writer::new();
    write_configs(&mut w, delta.upserts.iter().map(|(name, cfg)| (name, cfg)));
    write_names(&mut w, &delta.removes);
    w.finish()
}

/// Decode a journal record: an error, never a half-applied delta.
fn decode_delta(bytes: &[u8]) -> Result<ConfigDelta, WireError> {
    let mut r = Reader::new(bytes);
    let delta = ConfigDelta { upserts: read_configs(&mut r)?, removes: read_names(&mut r)? };
    r.done()?;
    Ok(delta)
}

impl RealConfig {
    /// Attach a state directory for durable warm state. Creates the
    /// directory if missing. Journaling starts at the next
    /// [`RealConfig::save_snapshot`] (a journal is only meaningful as
    /// an extension of a snapshot).
    pub fn attach_state_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let seq = list_snapshots(dir)?.first().map(|(s, _)| *s).unwrap_or(0);
        self.store =
            Some(StoreState { dir: dir.to_path_buf(), seq, journal: None, appended: 0 });
        Ok(())
    }

    /// The attached state directory, if any.
    pub fn state_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir.as_path())
    }

    /// Sequence number of the newest snapshot written or restored
    /// through this verifier (0 before any).
    pub fn snapshot_seq(&self) -> u64 {
        self.store.as_ref().map(|s| s.seq).unwrap_or(0)
    }

    /// Number of apply records made durable in the current journal
    /// since the last snapshot.
    pub fn journaled_changes(&self) -> u64 {
        self.store.as_ref().map(|s| s.appended).unwrap_or(0)
    }

    /// Whether committed applies are currently being journaled (a state
    /// directory is attached, a snapshot exists, and no append has
    /// failed since).
    pub fn journaling(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.journal.is_some())
    }

    /// Serialize the full verifier state into snapshot sections.
    fn encode_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut meta = Writer::new();
        meta.u8(match self.opts.order {
            UpdateOrder::InsertFirst => 0,
            UpdateOrder::DeleteFirst => 1,
            UpdateOrder::AsGiven => 2,
        });
        // The retired full-scan flag and auto-compaction field, kept so
        // snapshot bytes do not move.
        meta.u8(0);
        meta.u8(1);
        meta.u32(DEFAULT_AUTO_COMPACT);

        let mut reg = Writer::new();
        let (node_names, iface_names) = self.registry.export_names();
        write_names(&mut reg, &node_names);
        write_names(&mut reg, &iface_names);

        let mut cfgs = Writer::new();
        write_configs(&mut cfgs, self.configs.iter());

        let mut model = Writer::new();
        self.stages.model.encode_state(&mut model);
        let mut checker = Writer::new();
        self.stages.checker.encode_state(&mut checker);

        vec![
            (SEC_META, meta.finish()),
            (SEC_REGISTRY, reg.finish()),
            (SEC_CONFIGS, cfgs.finish()),
            (SEC_MODEL, model.finish()),
            (SEC_CHECKER, checker.finish()),
        ]
    }

    /// Write a checksummed snapshot of the current state to the
    /// attached state directory (atomically: write-temp, fsync, rename,
    /// fsync dir), start a fresh journal extending it, and prune old
    /// snapshots down to the retention count. Returns the new snapshot
    /// sequence number.
    pub fn save_snapshot(&mut self) -> Result<u64, StoreError> {
        let (dir, seq) = match &self.store {
            Some(s) => (s.dir.clone(), s.seq + 1),
            None => {
                return Err(StoreError::Corrupt(
                    "no state directory attached (see attach_state_dir)".into(),
                ))
            }
        };
        let bytes = encode_snapshot(&self.encode_sections());
        let snap_bytes = bytes.len() as i64;
        atomic_write(&snapshot_path(&dir, seq), &bytes)?;

        // The snapshot is durable from here: even if starting the new
        // journal fails, restore finds `seq` intact (an old journal
        // naming an older seq is rejected by the seq cross-check).
        let journal = match Journal::create(&journal_path(&dir), seq) {
            Ok(j) => {
                // Journaling is back on: earlier persistence warnings
                // no longer hold.
                self.stages.lowering.clear_notes();
                Some(j)
            }
            Err(e) => {
                self.telemetry.counter("store.journal_open_failures").incr();
                self.stages.lowering.note(format!(
                    "persistence: journal create failed after snapshot {seq}: {e} \
                     (journaling disabled until next snapshot)"
                ));
                None
            }
        };
        if let Err(e) = prune_snapshots(&dir, KEEP_SNAPSHOTS) {
            // Retention is best-effort; stale snapshots are harmless.
            self.telemetry.counter("store.prune_failures").incr();
            let _ = e;
        }
        if let Some(s) = self.store.as_mut() {
            s.seq = seq;
            s.journal = journal;
            s.appended = 0;
        }
        self.telemetry.counter("store.snapshots_written").incr();
        self.telemetry.gauge("store.snapshot_bytes").set(snap_bytes);
        Ok(seq)
    }

    /// Append a committed change's record ([`encode_delta`], made
    /// only while journaling is on) to the journal. On failure,
    /// journaling is disabled until the next snapshot — the journal on
    /// disk stays a checksummed exact prefix of the committed changes,
    /// with no gaps.
    pub(super) fn journal_append(&mut self, record: Option<Vec<u8>>) {
        let Some(record) = record else { return };
        let Some(store) = self.store.as_mut() else { return };
        let Some(journal) = store.journal.as_mut() else { return };
        match journal.append(&record) {
            Ok(()) => {
                store.appended += 1;
                self.telemetry.counter("store.journal_appends").incr();
            }
            Err(e) => {
                store.journal = None;
                self.telemetry.counter("store.journal_append_failures").incr();
                self.stages.lowering.note(format!(
                    "persistence: journal append failed: {e} \
                     (journaling disabled until next snapshot)"
                ));
            }
        }
    }

    /// After a wholesale rebuild committed configurations that never
    /// went through the journaled incremental path, the journal no
    /// longer extends to the current state. Re-base it on a fresh
    /// snapshot (best-effort: on failure, journaling stays off until
    /// the next explicit snapshot).
    pub(super) fn rebase_journal_after_rebuild(&mut self) {
        let Some(store) = self.store.as_mut() else { return };
        // Whatever happens below, the old journal must not receive
        // further appends — its base no longer matches.
        store.journal = None;
        if let Err(e) = self.save_snapshot() {
            self.telemetry.counter("store.snapshot_failures").incr();
            self.stages.lowering.note(format!(
                "persistence: snapshot after rebuild failed: {e} \
                 (journaling disabled until next snapshot)"
            ));
        }
    }

    /// Open a verifier from a state directory, walking the recovery
    /// ladder: newest snapshot + journal replay → previous snapshot →
    /// full rebuild from `fallback` configurations. Never refuses to
    /// start over recoverable corruption — the report says which rung
    /// ran and what was discarded. The only `Err` cases are the
    /// fallback build itself failing (e.g. the fallback configurations
    /// do not verify) or the state directory being uncreatable.
    pub fn open(
        state_dir: &Path,
        fallback: BTreeMap<String, DeviceConfig>,
    ) -> Result<(Self, RestoreReport), Error> {
        Self::open_with(state_dir, fallback, VerifierOptions::default())
    }

    /// [`RealConfig::open`] with explicit options. A restored snapshot
    /// overrides `opts` with what it records — update order and the
    /// model's predicate backend; everything else (`threads`,
    /// `on_failure`) is the caller's.
    pub fn open_with(
        state_dir: &Path,
        fallback: BTreeMap<String, DeviceConfig>,
        opts: VerifierOptions,
    ) -> Result<(Self, RestoreReport), Error> {
        let t0 = Instant::now();
        let mut report = RestoreReport::default();
        let snaps = list_snapshots(state_dir).unwrap_or_else(|e| {
            report.notes.push(format!("state dir unreadable: {e}"));
            Vec::new()
        });

        // Walk the ladder down to a verifier, and learn whether the
        // journal on disk is exactly what it replayed.
        let mut restored = None;
        for (rank, (seq, path)) in snaps.iter().take(KEEP_SNAPSHOTS).enumerate() {
            let mut rc = match Self::restore_from_file(path, opts) {
                Ok(rc) => rc,
                Err(e) => {
                    report.snapshots_rejected += 1;
                    report.notes.push(format!("snapshot {seq} rejected: {e}"));
                    continue;
                }
            };
            let journal_clean = if rank == 0 {
                report.source = RestoreSource::Snapshot { seq: *seq };
                rc.replay_journal(state_dir, *seq, &mut report)
            } else {
                report.source = RestoreSource::PreviousSnapshot { seq: *seq };
                report
                    .notes
                    .push("journal (if any) extends a newer snapshot; not replayed".into());
                false
            };
            restored = Some((rc, journal_clean));
            break;
        }
        let (mut rc, journal_clean) = match restored {
            Some(found) => found,
            // Bottom rung: full rebuild from the fallback configurations.
            None => {
                if !snaps.is_empty() {
                    report.source = RestoreSource::Rebuilt;
                    report
                        .notes
                        .push("all snapshots rejected; rebuilt from fallback configs".into());
                }
                (Self::with_options(fallback, opts)?.0, false)
            }
        };

        if let Err(e) = rc.attach_state_dir(state_dir) {
            report.notes.push(format!("state dir attach failed: {e}"));
        } else if let (true, Some(store)) = (journal_clean, rc.store.as_mut()) {
            // The journal on disk is exactly the replayed records:
            // keep extending it.
            store.journal = Some(Journal::attach(&journal_path(state_dir)));
            store.appended = report.replayed as u64;
        } else {
            // No snapshot, an older one, a torn tail or a seq mismatch:
            // the journal does not match the restored state. Re-base on
            // a fresh snapshot.
            rc.rebase_journal_after_rebuild();
        }

        report.elapsed = t0.elapsed();
        let tel = &rc.telemetry;
        tel.counter("store.restores").incr();
        if report.replayed > 0 {
            tel.counter("store.journal_replays").add(report.replayed as u64);
        }
        if report.discarded_corrupt > 0 {
            tel.counter("store.corrupt_records_skipped").add(report.discarded_corrupt as u64);
        }
        tel.histogram("store.restore_us").record(report.elapsed.as_micros() as u64);
        Ok((rc, report))
    }

    /// Decode one snapshot file into a fully wired verifier. Any
    /// defect — bad CRC, truncation, cross-reference out of bounds,
    /// facts that no longer lower — is an `Err`, never a verifier that
    /// miscomputes.
    fn restore_from_file(path: &Path, mut opts: VerifierOptions) -> Result<Self, String> {
        let bytes = rc_store::read_file(path).map_err(|e| e.to_string())?;
        let sections = decode_snapshot(&bytes).map_err(|e| e.to_string())?;
        // Decode one section to its end; errors carry the section name.
        fn section<T>(
            sections: &[(u32, Vec<u8>)],
            (tag, name): (u32, &str),
            decode: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
        ) -> Result<T, String> {
            let (_, bytes) = sections
                .iter()
                .find(|(t, _)| *t == tag)
                .ok_or_else(|| format!("snapshot missing section {name}"))?;
            let mut r = Reader::new(bytes);
            let value = decode(&mut r).map_err(|e| format!("{name}: {}", e.0))?;
            r.done().map_err(|e| format!("{name}: {}", e.0))?;
            Ok(value)
        }

        section(&sections, (SEC_META, "meta"), |r| {
            opts.order = match r.u8()? {
                0 => UpdateOrder::InsertFirst,
                1 => UpdateOrder::DeleteFirst,
                2 => UpdateOrder::AsGiven,
                t => return Err(WireError(format!("bad update-order tag {t}"))),
            };
            // The retired full-scan flag and auto-compaction field:
            // validated, not used.
            match r.u8()? {
                0 | 1 => {}
                t => return Err(WireError(format!("bad full-scan flag {t}"))),
            }
            match r.u8()? {
                0 => {}
                1 => drop(r.u32()?),
                t => return Err(WireError(format!("bad auto-compact tag {t}"))),
            }
            Ok(())
        })?;

        // REGISTRY: names in id order, so every id in the model /
        // checker sections resolves to the same name it had live.
        let (node_names, iface_names) =
            section(&sections, (SEC_REGISTRY, "registry"), |r| Ok((read_names(r)?, read_names(r)?)))?;
        let mut registry = Registry::from_names(node_names, iface_names)?;

        // CONFIGS: canonical printed text, re-parsed.
        let mut configs = BTreeMap::new();
        for (name, cfg) in section(&sections, (SEC_CONFIGS, "configs"), read_configs)? {
            if configs.insert(name, cfg).is_some() {
                return Err("snapshot config duplicated".into());
            }
        }

        // MODEL and CHECKER: handle-for-handle state restore.
        let model = section(&sections, (SEC_MODEL, "model"), ApkModel::decode_state)?;
        let checker = section(&sections, (SEC_CHECKER, "checker"), |r| {
            PolicyChecker::decode_state(r, &model)
        })?;
        opts.backend = model.backend();

        // Re-derive everything that is cheaper to recompute than to
        // store: lowering is deterministic and all names are already
        // interned, so facts and warnings come back exactly as they
        // were; the routing engine is rebuilt by replaying the full
        // fact set (the paper's dp-gen stage, minus model and check),
        // which also primes the FIB grouper so the next incremental
        // convert diffs against the right baseline.
        let telemetry = rc_telemetry::Telemetry::new();
        let dp = DataPlane::build(&configs, &mut registry, &opts, &telemetry)
            .map_err(|e| format!("restored facts no longer evaluate: {e}"))?;
        // Cross-check the restored model against the rebuilt data
        // plane: the rule count must line up or the snapshot and
        // configs disagree.
        if model.num_rules() != dp.rules.len() {
            return Err(format!(
                "snapshot model has {} rules but configs lower to {}",
                model.num_rules(),
                dp.rules.len()
            ));
        }

        Ok(RealConfig {
            configs,
            registry,
            stages: Stages::assemble(dp, model, checker, &opts, &telemetry),
            opts,
            telemetry,
            poisoned: false,
            store: None,
        })
    }

    /// Replay the journal (if it extends `snapshot_seq`): fold its
    /// records into the configurations they lead to and verify that as
    /// one incremental apply. Returns whether the journal on disk is a
    /// clean exact record of what was replayed (and may therefore keep
    /// being appended to); a defect truncates replay to the records
    /// before it and counts the rest as discarded.
    fn replay_journal(
        &mut self,
        dir: &Path,
        snapshot_seq: u64,
        report: &mut RestoreReport,
    ) -> bool {
        let path = journal_path(dir);
        if !path.exists() {
            report.notes.push("no journal found".into());
            return false;
        }
        let jr = match read_journal(&path) {
            Ok(jr) => jr,
            Err(e) => {
                report.discarded_corrupt += 1;
                report.notes.push(format!("journal unreadable: {e}"));
                return false;
            }
        };
        if jr.snapshot_seq != snapshot_seq {
            report.discarded_corrupt += jr.records.len().max(1);
            report.notes.push(format!(
                "journal extends snapshot {} but {} was restored; discarded",
                jr.snapshot_seq, snapshot_seq
            ));
            return false;
        }
        let mut clean = true;
        if jr.discarded > 0 {
            report.discarded_corrupt += jr.discarded;
            report.notes.push(format!("journal tail torn ({} discarded)", jr.discarded));
            clean = false;
        }
        // Fold the records into the configurations they lead to; a
        // decode failure truncates to the clean prefix.
        let mut new_configs = self.configs.clone();
        let mut folded = 0;
        for (i, record) in jr.records.iter().enumerate() {
            match decode_delta(record) {
                Ok(delta) => {
                    delta.apply_to(&mut new_configs);
                    folded += 1;
                }
                Err(e) => {
                    report.discarded_corrupt += jr.records.len() - i;
                    report.notes.push(format!("journal record {i} corrupt: {e}"));
                    clean = false;
                    break;
                }
            }
        }
        if folded == 0 {
            return clean;
        }
        if let Err(e) = self.apply_configs(new_configs) {
            // The records were durable but no longer apply (e.g. a
            // bit-flip survived CRC — astronomically unlikely — or the
            // apply genuinely fails). Heal back to the snapshot's state.
            report.discarded_corrupt += folded;
            report.notes.push(format!("journal records failed to apply: {e}"));
            if self.poisoned {
                let _ = self.rebuild();
            }
            return false;
        }
        report.replayed = folded;
        report.notes.push(format!("journal replayed: {folded} records, one apply"));
        clean
    }
}
