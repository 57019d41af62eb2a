//! The checksummed snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [8]  magic  "RCSNAP\0\1"
//! [4]  format version (u32)
//! [4]  section count (u32)
//! per section:
//!   [4]  tag (u32, caller-defined)
//!   [8]  payload length (u64)
//!   [n]  payload
//!   [4]  CRC32 of payload
//! ```
//!
//! Each section is independently checksummed so a bit flip anywhere is
//! pinned to a section and the whole file is rejected (sections
//! cross-reference each other — stored policies name node ids the
//! registry section interns — so a partially-valid snapshot is not
//! worth salvaging; the recovery ladder's next rung is).

use crate::wire::{Reader, Writer};
use crate::{crc32, StoreError};
use std::io;
use std::path::{Path, PathBuf};

/// Identifies a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RCSNAP\x00\x01";

/// Bumped on any incompatible layout change; readers reject other
/// versions and the recovery ladder falls through to a rebuild.
/// Version 2: the checker section stores only per-EC analyses and
/// policies (its derived indexes are rebuilt on decode). Version 3: the
/// model section stores only the predicate backend and the checker
/// section only the policies with their verdicts; restore rebuilds the
/// rest from the configurations.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Encode `sections` (tag, payload) into a self-validating snapshot
/// image, ready for [`crate::atomic_write`].
pub fn encode_snapshot(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u32(sections.len() as u32);
    for (tag, payload) in sections {
        w.u32(*tag);
        w.u64(payload.len() as u64);
        w.raw(payload);
        w.u32(crc32(payload));
    }
    w.finish()
}

/// Decode and fully validate a snapshot image, returning its sections.
/// Any defect — bad magic, version skew, truncation, CRC mismatch,
/// trailing garbage — is an error; the caller never sees bytes that
/// did not checksum clean.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, StoreError> {
    let mut r = Reader::new(bytes);
    let magic = r.raw(8).map_err(|_| StoreError::Corrupt("snapshot shorter than magic".into()))?;
    if magic != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::Version { found: version, expected: SNAPSHOT_VERSION });
    }
    let count = r.u32()?;
    let mut sections = Vec::new();
    for i in 0..count {
        let tag = r.u32()?;
        let len = r.u64()?;
        if len > r.remaining() as u64 {
            return Err(StoreError::Corrupt(format!(
                "section {i} (tag {tag}) claims {len} bytes, {} remain",
                r.remaining()
            )));
        }
        let payload = r.raw(len as usize)?;
        let stored = r.u32()?;
        let actual = crc32(payload);
        if stored != actual {
            return Err(StoreError::Corrupt(format!(
                "section {i} (tag {tag}) CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        sections.push((tag, payload.to_vec()));
    }
    r.done().map_err(|e| StoreError::Corrupt(e.to_string()))?;
    Ok(sections)
}

/// Path of the snapshot with sequence number `seq` inside a state
/// directory. Sequence numbers are zero-padded so lexicographic and
/// numeric order agree.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:016}.rcs"))
}

/// Enumerate the snapshots in a state directory, newest (highest
/// sequence number) first. Files that do not parse as snapshot names
/// are ignored; missing directories yield an empty list (a cold start
/// is not an error).
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".rcs")) else {
            continue;
        };
        if let Ok(seq) = seq.parse::<u64>() {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Delete all but the newest `keep` snapshots in `dir`. Failures to
/// remove are ignored — pruning is advisory; stale snapshots only
/// cost disk.
pub fn prune_snapshots(dir: &Path, keep: usize) -> io::Result<()> {
    for (_, path) in list_snapshots(dir)?.into_iter().skip(keep) {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(u32, Vec<u8>)> {
        vec![(1, b"alpha section".to_vec()), (7, vec![0u8; 1000]), (2, Vec::new())]
    }

    #[test]
    fn encode_decode_round_trips() {
        let img = encode_snapshot(&sample());
        assert_eq!(decode_snapshot(&img).unwrap(), sample());
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let img = encode_snapshot(&sample());
        // Flip a bit at several positions spanning header, payload and
        // CRC bytes; every one must fail validation.
        for pos in [0usize, 9, 20, 40, img.len() / 2, img.len() - 1] {
            let mut bad = img.clone();
            bad[pos] ^= 0x04;
            assert!(decode_snapshot(&bad).is_err(), "bit flip at {pos} went undetected");
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected() {
        let img = encode_snapshot(&sample());
        for cut in [0, 4, 8, 12, 16, img.len() - 1] {
            assert!(decode_snapshot(&img[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn version_skew_is_a_distinct_error() {
        let mut img = encode_snapshot(&sample());
        img[8] = 99; // version field follows the 8-byte magic
        match decode_snapshot(&img) {
            Err(StoreError::Version { found: 99, expected }) => {
                assert_eq!(expected, SNAPSHOT_VERSION)
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn listing_orders_newest_first_and_pruning_keeps_that_prefix() {
        let dir = std::env::temp_dir()
            .join(format!("rc-store-snaplist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [3u64, 1, 2] {
            std::fs::write(snapshot_path(&dir, seq), b"x").unwrap();
        }
        std::fs::write(dir.join("journal.rcj"), b"not a snapshot").unwrap();
        let seqs: Vec<u64> = list_snapshots(&dir).unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![3, 2, 1]);
        prune_snapshots(&dir, 2).unwrap();
        let seqs: Vec<u64> = list_snapshots(&dir).unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![3, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
