//! An in-memory [`StorageBackend`] with fault injection.
//!
//! [`MemBackend`] models one data directory as a map of named byte
//! buffers. Each buffer tracks a **synced length** — the durability
//! horizon `sync_data` advances — so a simulated crash can do what a real
//! power loss does: keep everything fsynced, tear everything after it.
//! The tear is deterministic (half of the unsynced suffix survives), so a
//! crash in a seeded scenario is replayable bit-for-bit.
//!
//! Faults:
//!
//! * **fsync latency** — every `sync_data` advances the shared
//!   [`SimClock`] by a configured cost instead of sleeping (spans still
//!   read wall time through `now_ns()`; the sim clock is never printed),
//! * **fsync stall** — a one-shot extra delay consumed by the next
//!   `sync_data` (a device hiccup),
//! * **crash** — [`MemBackend::crash`] truncates every file to its synced
//!   length plus a deterministic torn tail, exactly the state a restart
//!   would find on disk.
//!
//! Name-level operations (create / rename / remove) are modeled as
//! immediately durable — the directory entry always survives the crash,
//! file *contents* only up to their synced length. That is the exact
//! window the recovery hardening for torn fresh-segment headers covers.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use adcast_durability::{StorageBackend, StorageFile};
use adcast_stream::clock::SimClock;

/// One simulated file: contents plus the durability horizon.
#[derive(Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    synced_len: usize,
}

/// Fsync cost accounting, shared by the backend and every open handle.
struct FsyncMeter {
    clock: Arc<SimClock>,
    latency_ns: u64,
    /// One-shot extra delay consumed by the next fsync, in virtual ns.
    pending_stall_ns: AtomicU64,
    fsyncs: AtomicU64,
}

impl FsyncMeter {
    /// Charge one fsync onto the virtual clock.
    fn charge(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let stall = self.pending_stall_ns.swap(0, Ordering::Relaxed);
        self.clock.advance_ns(self.latency_ns + stall);
    }
}

/// The simulated data directory.
pub struct MemBackend {
    meter: Arc<FsyncMeter>,
    /// Name → file. Handles share the file object (inode semantics:
    /// renaming a file does not invalidate open handles).
    files: Mutex<BTreeMap<String, Arc<Mutex<MemFile>>>>,
}

fn lock_file(file: &Mutex<MemFile>) -> MutexGuard<'_, MemFile> {
    file.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemBackend {
    /// A fresh empty directory sharing `clock` with the harness.
    pub fn new(clock: Arc<SimClock>, fsync_latency_ns: u64) -> Arc<MemBackend> {
        Arc::new(MemBackend {
            meter: Arc::new(FsyncMeter {
                clock,
                latency_ns: fsync_latency_ns,
                pending_stall_ns: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
            }),
            files: Mutex::new(BTreeMap::new()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Mutex<MemFile>>>> {
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Schedule a one-shot stall: the next fsync takes `ns` extra virtual
    /// nanoseconds.
    pub fn stall_next_fsync(&self, ns: u64) {
        self.meter.pending_stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Simulate a power loss: every file keeps its synced bytes plus a
    /// deterministic torn tail (half of the unsynced suffix). Open
    /// handles keep working afterwards — real code drops them before
    /// recovery, and the bytes they write post-crash would simply be
    /// unsynced again.
    pub fn crash(&self) -> CrashReport {
        let files = self.lock();
        let mut report = CrashReport::default();
        for file in files.values() {
            let mut f = lock_file(file);
            let unsynced = f.data.len().saturating_sub(f.synced_len);
            if unsynced > 0 {
                report.files_torn += 1;
                report.bytes_lost += (unsynced - unsynced / 2) as u64;
                let keep = f.synced_len + unsynced / 2;
                f.data.truncate(keep);
                f.synced_len = keep;
            }
        }
        report
    }

    /// Bytes currently held across all files (the "disk usage" a bounded
    /// data-dir test asserts on).
    pub fn total_bytes(&self) -> u64 {
        self.lock()
            .values()
            .map(|f| lock_file(f).data.len() as u64)
            .sum()
    }

    /// Number of files in the directory.
    pub fn file_count(&self) -> usize {
        self.lock().len()
    }

    /// fsyncs issued so far.
    pub fn fsyncs(&self) -> u64 {
        self.meter.fsyncs.load(Ordering::Relaxed)
    }
}

/// What a simulated crash destroyed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// Files that lost unsynced bytes.
    pub files_torn: u64,
    /// Unsynced bytes dropped (the surviving torn half not included).
    pub bytes_lost: u64,
}

/// A write handle onto one simulated file.
struct MemHandle {
    meter: Arc<FsyncMeter>,
    file: Arc<Mutex<MemFile>>,
}

impl Write for MemHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        lock_file(&self.file).data.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StorageFile for MemHandle {
    fn sync_data(&mut self) -> io::Result<()> {
        {
            let mut f = lock_file(&self.file);
            f.synced_len = f.data.len();
        }
        self.meter.charge();
        Ok(())
    }
}

impl StorageBackend for MemBackend {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let file = Arc::new(Mutex::new(MemFile::default()));
        self.lock().insert(name.to_string(), Arc::clone(&file));
        Ok(Box::new(MemHandle {
            meter: Arc::clone(&self.meter),
            file,
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        match self.lock().get(name) {
            Some(file) => Ok(lock_file(file).data.clone()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.lock().keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match self.lock().remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = self.lock();
        match files.remove(from) {
            Some(file) => {
                files.insert(to.to_string(), file);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, from.to_string())),
        }
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        match self.lock().get(name) {
            Some(file) => {
                let mut f = lock_file(file);
                f.data.truncate(len as usize);
                f.synced_len = f.synced_len.min(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Names are modeled as immediately durable; the directory fsync
        // is a no-op that costs nothing.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> (Arc<SimClock>, Arc<MemBackend>) {
        let clock = Arc::new(SimClock::new());
        let b = MemBackend::new(Arc::clone(&clock), 1_000);
        (clock, b)
    }

    #[test]
    fn crash_keeps_synced_bytes_and_tears_the_rest() {
        let (_, b) = backend();
        let mut f = b.create("wal.log").unwrap();
        f.write_all(b"durable!").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"inflight").unwrap();
        let report = b.crash();
        assert_eq!(report.files_torn, 1);
        assert_eq!(report.bytes_lost, 4);
        // Synced prefix intact, deterministic half of the tail survives.
        assert_eq!(b.read("wal.log").unwrap(), b"durable!infl");
        // A second crash with nothing unsynced is a no-op.
        assert_eq!(b.crash(), CrashReport::default());
    }

    #[test]
    fn fsync_advances_clock_and_consumes_stall_once() {
        let (clock, b) = backend();
        let mut f = b.create("a").unwrap();
        f.write_all(b"x").unwrap();
        f.sync_data().unwrap();
        assert_eq!(clock.now_ns(), 1_000);
        b.stall_next_fsync(50_000);
        f.sync_data().unwrap();
        assert_eq!(clock.now_ns(), 52_000, "stall charged once");
        f.sync_data().unwrap();
        assert_eq!(clock.now_ns(), 53_000, "back to base latency");
        assert_eq!(b.fsyncs(), 3);
    }

    #[test]
    fn rename_preserves_open_handles_and_contents() {
        let (_, b) = backend();
        let mut f = b.create("tmp").unwrap();
        f.write_all(b"snap").unwrap();
        f.sync_data().unwrap();
        b.rename("tmp", "final").unwrap();
        // Inode semantics: the old handle still appends to the same file.
        f.write_all(b"shot").unwrap();
        f.sync_data().unwrap();
        assert_eq!(b.read("final").unwrap(), b"snapshot");
        assert!(b.read("tmp").is_err());
        assert_eq!(b.list().unwrap(), vec!["final".to_string()]);
    }

    #[test]
    fn truncate_clamps_the_durability_horizon() {
        let (_, b) = backend();
        let mut f = b.create("seg").unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync_data().unwrap();
        b.truncate("seg", 4).unwrap();
        assert_eq!(b.read("seg").unwrap(), b"0123");
        // Nothing reappears after a crash: synced_len was clamped too.
        b.crash();
        assert_eq!(b.read("seg").unwrap(), b"0123");
        assert_eq!(b.total_bytes(), 4);
        assert_eq!(b.file_count(), 1);
    }
}
