//! Durable state for the RealConfig verifier.
//!
//! The paper's whole value proposition is *warm incremental state*:
//! rebuilding the EC model and policy verdicts from scratch costs two
//! orders of magnitude more than updating them in place. This crate
//! makes that warmth survive a process exit. Three pieces:
//!
//! - [`atomic_write`] — the crash-safe file write every durable
//!   artifact goes through (`write temp → fsync file → rename →
//!   fsync dir`), so a reader never observes a half-written file under
//!   the final name.
//! - snapshots ([`encode_snapshot`] / [`decode_snapshot`]) — a
//!   versioned, length-prefixed container with a CRC32 per section.
//!   Corruption anywhere (bit flip, truncation, version skew) is
//!   detected on read, never silently deserialized.
//! - the journal ([`Journal`], [`read_journal`]) — an append-only
//!   record log for state *newer* than the last snapshot. Each record
//!   carries its own length and CRC; a torn tail (the expected artifact
//!   of a crash mid-append) is detected and discarded, everything
//!   before it replays.
//!
//! The crate is deliberately policy-free: it moves bytes and checks
//! checksums. What goes *in* the sections and records — and what to do
//! when they are missing — is the caller's recovery ladder
//! (`realconfig::RealConfig::open`).
//!
//! Crash behavior is testable on demand: the write paths are
//! instrumented with [`rc_faults`] I/O fault points (torn write,
//! partial append, bit flip on read, fsync failure), so chaos tests
//! can kill persistence at any byte boundary deterministically.

#![forbid(unsafe_code)]

mod atomic;
mod journal;
mod snapshot;
pub mod wire;

pub use atomic::atomic_write;
pub use journal::{read_journal, Journal, JournalRead, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use snapshot::{
    decode_snapshot, encode_snapshot, list_snapshots, prune_snapshots, snapshot_path,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use wire::{Reader, WireError, Writer};

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why a durable artifact could not be read back.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The bytes are present but fail validation: bad magic, bad CRC,
    /// truncated section, or a malformed payload.
    Corrupt(String),
    /// The artifact was written by an incompatible format version.
    Version {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store artifact: {msg}"),
            StoreError::Version { found, expected } => {
                write!(f, "store format version {found} (this build expects {expected})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// Conventional journal file name inside a state directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.rcj")
}

/// Read a whole file, passing the bytes through the
/// [`rc_faults::FaultPoint::StoreBitFlipRead`] fault point: an armed
/// plan flips one bit mid-buffer, modeling silent media corruption
/// that only a checksum can catch.
pub fn read_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    if rc_faults::fire(rc_faults::FaultPoint::StoreBitFlipRead) && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
    }
    Ok(bytes)
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven. Vendored
/// here because the build environment is offline; the checksum only
/// needs to catch torn writes and bit rot, not adversaries.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_a_single_bit_flip() {
        let mut data = b"the warm state must survive".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
