//! Chunk persistence: the [`ColumnStore`] trait with in-memory and
//! file-backed backends.
//!
//! The on-disk format (`.eafc`, "E-AFE columns") is append-only:
//!
//! ```text
//! [magic "EAFC"][version u32 LE][reserved u64]          16-byte header
//! [chunk payload bytes] ...                             appended records
//! ```
//!
//! Every `append` returns a [`ChunkTicket`] carrying the record's offset,
//! length, and FNV-1a checksum; `read_into` verifies the checksum on every
//! read, so a torn write or bit rot surfaces as [`TabularError::Io`] rather
//! than silently corrupt data. There is no index in the file: a spill file
//! is only ever read back by the process that wrote it, at the offsets and
//! checksums that process recorded itself.
//!
//! A read is one positioned `seek` + `read_exact` into the caller's buffer
//! under the file lock, on every platform. Nothing of the file stays mapped
//! or cached in this process, so resident memory is bounded by the
//! [`FrameBudget`](crate::budget::FrameBudget), not by how much of the
//! spill file has been scanned.

use crate::error::{Result, TabularError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// FNV-1a over a byte slice; the checksum used for chunk records.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Location + integrity info for one stored chunk record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTicket {
    /// Byte offset of the payload within the store.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// Append-only chunk persistence used by spill/evict in
/// [`ChunkedFrame`](crate::chunk::ChunkedFrame).
pub trait ColumnStore: Send + Sync + std::fmt::Debug {
    /// Persist one chunk payload, returning its ticket.
    fn append(&self, payload: &[u8]) -> Result<ChunkTicket>;

    /// Read a previously appended payload into `out` (cleared first),
    /// verifying the ticket's checksum.
    fn read_into(&self, ticket: &ChunkTicket, out: &mut Vec<u8>) -> Result<()>;
}

fn checksum_mismatch(t: &ChunkTicket, got: u64) -> TabularError {
    TabularError::Io(format!(
        "chunk checksum mismatch at offset {}: expected {:#x}, got {got:#x}",
        t.offset, t.checksum
    ))
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// RAM-backed [`ColumnStore`]: a single growing arena. Spilling to this
/// store keeps data in process memory but in encoded (compressed) form —
/// useful for tests and for budgeted runs that fit encoded-but-not-decoded.
#[derive(Debug, Default)]
pub struct InMemoryStore {
    arena: Mutex<Vec<u8>>,
}

impl InMemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

// A poisoned arena lock is recovered: the arena only grows by whole
// appends, and a ticket is issued after its bytes are in place.
impl ColumnStore for InMemoryStore {
    fn append(&self, payload: &[u8]) -> Result<ChunkTicket> {
        let mut arena = self.arena.lock().unwrap_or_else(PoisonError::into_inner);
        let offset = arena.len() as u64;
        arena.extend_from_slice(payload);
        Ok(ChunkTicket {
            offset,
            len: payload.len() as u32,
            checksum: fnv1a(payload),
        })
    }

    fn read_into(&self, ticket: &ChunkTicket, out: &mut Vec<u8>) -> Result<()> {
        let arena = self.arena.lock().unwrap_or_else(PoisonError::into_inner);
        let start = ticket.offset as usize;
        let end = start + ticket.len as usize;
        if end > arena.len() {
            return Err(TabularError::Io(format!(
                "chunk read past end of store: {end} > {}",
                arena.len()
            )));
        }
        out.clear();
        out.extend_from_slice(&arena[start..end]);
        let got = fnv1a(out);
        if got != ticket.checksum {
            return Err(checksum_mismatch(ticket, got));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// File-backed .eafc store
// ---------------------------------------------------------------------------

/// Magic bytes opening every `.eafc` file.
pub(crate) const EAFC_MAGIC: [u8; 4] = *b"EAFC";
/// Current `.eafc` format version.
pub(crate) const EAFC_VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;

#[derive(Debug)]
struct FileState {
    file: File,
    /// Bytes of the file written so far (header + payloads).
    tail: u64,
}

/// File-backed [`ColumnStore`] over a `.eafc` spill file, read back by
/// positioned reads (the name predates the removal of its `mmap` read
/// path; `benchmark/` constructs it by this name).
#[derive(Debug)]
pub struct MmapStore {
    path: PathBuf,
    state: Mutex<FileState>,
}

impl MmapStore {
    /// Create a fresh `.eafc` file at `path`, truncating any existing file.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..4].copy_from_slice(&EAFC_MAGIC);
        header[4..8].copy_from_slice(&EAFC_VERSION.to_le_bytes());
        file.write_all(&header)?;
        Ok(MmapStore {
            path,
            state: Mutex::new(FileState {
                file,
                tail: HEADER_LEN,
            }),
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// A poisoned file lock is recovered: every read and write seeks first,
// and `tail` moves only after its bytes are written, so an interrupted
// append is overwritten by the next one and no ticket points into it.
impl ColumnStore for MmapStore {
    fn append(&self, payload: &[u8]) -> Result<ChunkTicket> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let offset = state.tail;
        // Reads move the shared cursor, so every write seeks first.
        state.file.seek(SeekFrom::Start(offset))?;
        state.file.write_all(payload)?;
        state.tail += payload.len() as u64;
        Ok(ChunkTicket {
            offset,
            len: payload.len() as u32,
            checksum: fnv1a(payload),
        })
    }

    fn read_into(&self, ticket: &ChunkTicket, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        out.resize(ticket.len as usize, 0);
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.file.seek(SeekFrom::Start(ticket.offset))?;
            state.file.read_exact(out).map_err(|e| {
                TabularError::Io(format!(
                    "chunk read of {} bytes at offset {}: {e}",
                    ticket.len, ticket.offset
                ))
            })?;
        }
        let got = fnv1a(out);
        if got != ticket.checksum {
            return Err(checksum_mismatch(ticket, got));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "eafc_store_test_{}_{name}.eafc",
            std::process::id()
        ));
        p
    }

    #[test]
    fn memory_store_round_trips_and_checks() {
        let store = InMemoryStore::new();
        let a = store.append(b"hello").unwrap();
        let b = store.append(b"world!").unwrap();
        let mut buf = Vec::new();
        store.read_into(&b, &mut buf).unwrap();
        assert_eq!(buf, b"world!");
        store.read_into(&a, &mut buf).unwrap();
        assert_eq!(buf, b"hello");
        // A corrupted ticket fails the checksum.
        let bad = ChunkTicket {
            checksum: a.checksum ^ 1,
            ..a
        };
        assert!(store.read_into(&bad, &mut buf).is_err());
    }

    #[test]
    fn file_store_round_trips_while_growing() {
        let path = tmp("grow");
        let store = MmapStore::create(&path).unwrap();
        let mut tickets = Vec::new();
        for i in 0..20u8 {
            let payload: Vec<u8> = (0..100 + i as usize).map(|j| (j as u8) ^ i).collect();
            tickets.push((store.append(&payload).unwrap(), payload));
        }
        // Interleave reads with growth: appends re-seek past the reads.
        let mut buf = Vec::new();
        for (t, want) in &tickets {
            store.read_into(t, &mut buf).unwrap();
            assert_eq!(&buf, want);
        }
        let more = store.append(b"tail record").unwrap();
        store.read_into(&more, &mut buf).unwrap();
        assert_eq!(buf, b"tail record");
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    /// The faults the checksum and `read_exact` exist for: the file
    /// changes underneath a ticket the process already holds.
    #[test]
    fn file_store_reports_a_flipped_byte_and_a_truncated_file() {
        let path = tmp("fault");
        let store = MmapStore::create(&path).unwrap();
        let first = store.append(&[7u8; 64]).unwrap();
        let second = store.append(&[9u8; 64]).unwrap();
        let mut buf = Vec::new();

        // Flip one payload byte of the first record through a second handle.
        let mut other = OpenOptions::new().write(true).open(&path).unwrap();
        other.seek(SeekFrom::Start(first.offset + 10)).unwrap();
        other.write_all(&[7u8 ^ 0x40]).unwrap();
        match store.read_into(&first, &mut buf) {
            Err(TabularError::Io(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}");
                assert!(msg.contains(&format!("offset {}", first.offset)), "{msg}");
            }
            other => panic!("flipped byte must fail the checksum, got {other:?}"),
        }
        store.read_into(&second, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 64]);

        // Truncate below the end of the second record: a short read.
        other.set_len(second.offset + 10).unwrap();
        match store.read_into(&second, &mut buf) {
            Err(TabularError::Io(msg)) => {
                assert!(msg.contains(&format!("offset {}", second.offset)), "{msg}");
            }
            other => panic!("truncated record must be a short read, got {other:?}"),
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }
}
