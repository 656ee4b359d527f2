//! Crash-safe storage primitives: checksums, atomic file replacement,
//! and a pluggable I/O layer with fault injection.
//!
//! The paper leaves "suitable storage strategies" open (§6.2); the
//! durability substrate built here makes the snapshot + log design of
//! [`crate::snapshot`] and [`crate::log`] crash-safe:
//!
//! * [`crc32`] — the IEEE CRC32 used to frame log records and to
//!   checksum snapshot manifests.
//! * [`StorageIo`] — the primitive file operations the persistence layer
//!   needs, as a trait so tests can inject faults at every I/O point.
//! * [`RealIo`] (the filesystem), [`MemIo`] (an in-memory filesystem for
//!   fast deterministic tests) and [`FaultIo`] (a wrapper that fails —
//!   with a torn half-write — on the Nth mutating operation and every
//!   operation after it, simulating a crash).
//! * [`atomic_write_with`] / [`atomic_write`] — write-temp → fsync →
//!   rename → fsync-dir replacement, so readers observe either the old
//!   or the new file, never a torn mixture.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The IEEE CRC32 lookup table (polynomial `0xEDB88320`, reflected).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Computes the IEEE CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The primitive file operations behind the persistence layer.
///
/// Durability-relevant code must route *every* file access through this
/// trait so the fault-injection tests can crash it at any point. Mutating
/// operations are `write`, `append`, `truncate`, `fsync`, `sync_dir`,
/// `rename`, `remove_file` and `create_dir_all`; read-only operations
/// never count as fault points.
pub trait StorageIo: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// True if the path names an existing file.
    fn exists(&self, path: &Path) -> bool;

    /// Lists the files directly inside a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Creates or truncates a file with the given contents.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Appends to a file, creating it if missing.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Truncates a file to a length (used to drop a torn log tail).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Flushes a file's data to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Flushes a directory entry (making renames/creates durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically replaces `to` with `from` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// Delegates every [`StorageIo`] operation through `Box`, so callers can
/// hold `Box<dyn StorageIo>` and pick a backend at runtime (the serving
/// layer's journal does; `Arc<I>` and `&I` delegate the same way below).
macro_rules! delegate_storage_io {
    ($ptr:ty) => {
        impl<T: StorageIo + ?Sized> StorageIo for $ptr {
            fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
                (**self).read(path)
            }
            fn exists(&self, path: &Path) -> bool {
                (**self).exists(path)
            }
            fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
                (**self).list(dir)
            }
            fn create_dir_all(&self, path: &Path) -> io::Result<()> {
                (**self).create_dir_all(path)
            }
            fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
                (**self).write(path, data)
            }
            fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
                (**self).append(path, data)
            }
            fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
                (**self).truncate(path, len)
            }
            fn fsync(&self, path: &Path) -> io::Result<()> {
                (**self).fsync(path)
            }
            fn sync_dir(&self, dir: &Path) -> io::Result<()> {
                (**self).sync_dir(dir)
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                (**self).rename(from, to)
            }
            fn remove_file(&self, path: &Path) -> io::Result<()> {
                (**self).remove_file(path)
            }
        }
    };
}

delegate_storage_io!(Box<T>);

/// The real filesystem.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl StorageIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is POSIX-specific; opening a directory as a
        // file works on Linux and macOS. Failure here is not ignorable:
        // an unsynced rename can vanish on power loss.
        std::fs::File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// An in-memory filesystem for fast, deterministic durability tests.
///
/// Every file tracks which prefix of its contents has been `fsync`ed, so
/// [`MemIo::crash`] can model power loss pessimistically: unsynced bytes
/// are dropped. (Directory-entry durability is modeled optimistically: a
/// rename survives a crash once the renamed file's *data* was synced.)
/// Shared via `Arc`, so a test can run a workload through a [`FaultIo`]
/// wrapper, crash, and then recover from the same files.
#[derive(Debug, Default)]
pub struct MemIo {
    state: Mutex<MemState>,
}

#[derive(Debug, Default)]
struct MemState {
    files: HashMap<PathBuf, FileBuf>,
    dirs: HashSet<PathBuf>,
}

#[derive(Debug, Default)]
struct FileBuf {
    data: Vec<u8>,
    /// Bytes guaranteed on stable storage (`data[..synced]`).
    synced: usize,
}

impl MemIo {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemIo::default()
    }

    /// Locks the filesystem map, recovering from poisoning: a panicking
    /// test thread must not cascade into unrelated recovery assertions.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of every file (for debugging assertions).
    pub fn files(&self) -> Vec<(PathBuf, usize)> {
        let state = self.lock_state();
        let mut out: Vec<_> = state.files.iter().map(|(p, f)| (p.clone(), f.data.len())).collect();
        out.sort();
        out
    }

    /// Simulates power loss: every file loses the bytes written since its
    /// last `fsync`. Call after a [`FaultIo`] fault fires, before driving
    /// recovery against the surviving state.
    pub fn crash(&self) {
        let mut state = self.lock_state();
        for file in state.files.values_mut() {
            file.data.truncate(file.synced);
        }
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
}

impl StorageIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.lock_state();
        state.files.get(path).map(|f| f.data.clone()).ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        let state = self.lock_state();
        state.files.contains_key(path) || state.dirs.contains(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let state = self.lock_state();
        let mut out: Vec<PathBuf> =
            state.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect();
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock_state();
        let mut p = Some(path);
        while let Some(dir) = p {
            state.dirs.insert(dir.to_path_buf());
            p = dir.parent();
        }
        Ok(())
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock_state();
        state.files.insert(path.to_path_buf(), FileBuf { data: data.to_vec(), synced: 0 });
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock_state();
        state.files.entry(path.to_path_buf()).or_default().data.extend_from_slice(data);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut state = self.lock_state();
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.data.truncate(len as usize);
        file.synced = file.synced.min(len as usize);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock_state();
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced = file.data.len();
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.lock_state();
        let data = state.files.remove(from).ok_or_else(|| not_found(from))?;
        state.files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.lock_state();
        state.files.remove(path).map(|_| ()).ok_or_else(|| not_found(path))
    }
}

/// A fault-injecting wrapper: the `limit`-th mutating operation — and
/// every mutating operation after it — fails, simulating a crash, until
/// [`FaultIo::heal`] ends the fault.
///
/// The failing operation is realistic about *how* it dies: `write` and
/// `append` first apply **half** of their payload (a torn write at the
/// point of power loss), then report the error. Read-only operations
/// (`read`, `exists`, `list`) never fail, so recovery code can be driven
/// against the post-crash state through the same handle.
#[derive(Debug)]
pub struct FaultIo<I> {
    inner: I,
    used: AtomicUsize,
    limit: AtomicUsize,
}

/// The error kind produced by injected faults.
pub const INJECTED_FAULT: io::ErrorKind = io::ErrorKind::Other;

impl<I: StorageIo> FaultIo<I> {
    /// Wraps `inner`, allowing `limit` mutating operations to succeed.
    pub fn new(inner: I, limit: usize) -> Self {
        FaultIo { inner, used: AtomicUsize::new(0), limit: AtomicUsize::new(limit) }
    }

    /// Ends the fault: every later operation succeeds, as after a
    /// transient device error rather than a crash.
    pub fn heal(&self) {
        self.limit.store(usize::MAX, Ordering::SeqCst);
    }

    /// The number of mutating operations attempted so far.
    pub fn ops_used(&self) -> usize {
        self.used.load(Ordering::SeqCst)
    }

    /// The wrapped I/O layer.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Counts one mutating operation; `Err` once the budget is spent.
    fn charge(&self) -> io::Result<()> {
        let n = self.used.fetch_add(1, Ordering::SeqCst);
        if n >= self.limit.load(Ordering::SeqCst) {
            Err(io::Error::new(INJECTED_FAULT, format!("injected fault at I/O op {n}")))
        } else {
            Ok(())
        }
    }
}

impl<I: StorageIo> StorageIo for FaultIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if let Err(e) = self.charge() {
            // A torn create: half the payload reached the disk.
            let _ = self.inner.write(path, &data[..data.len() / 2]);
            return Err(e);
        }
        self.inner.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if let Err(e) = self.charge() {
            // A torn append: the record stops mid-way.
            let _ = self.inner.append(path, &data[..data.len() / 2]);
            return Err(e);
        }
        self.inner.append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.charge()?;
        self.inner.truncate(path, len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        self.inner.fsync(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.charge()?;
        self.inner.sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.charge()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.charge()?;
        self.inner.remove_file(path)
    }
}

impl<I: StorageIo + ?Sized> StorageIo for &I {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        (**self).list(dir)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        (**self).create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        (**self).truncate(path, len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        (**self).fsync(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        (**self).sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        (**self).remove_file(path)
    }
}

impl<I: StorageIo + ?Sized> StorageIo for Arc<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        (**self).list(dir)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        (**self).create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        (**self).truncate(path, len)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        (**self).fsync(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        (**self).sync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        (**self).rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        (**self).remove_file(path)
    }
}

/// Atomically replaces `path` with `data` through an I/O layer:
/// write to `<path>.tmp`, fsync, rename over `path`, fsync the directory.
/// A crash at any point leaves either the old complete file or the new
/// complete file.
pub fn atomic_write_with(io: &dyn StorageIo, path: &Path, data: &[u8]) -> io::Result<()> {
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "atomic write needs a file name")
    })?;
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    io.write(&tmp, data)?;
    io.fsync(&tmp)?;
    io.rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        io.sync_dir(parent)?;
    }
    Ok(())
}

/// [`atomic_write_with`] on the real filesystem.
pub fn atomic_write(path: impl AsRef<Path>, data: &[u8]) -> io::Result<()> {
    atomic_write_with(&RealIo, path.as_ref(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn mem_io_behaves_like_a_filesystem() {
        let io = MemIo::new();
        let dir = Path::new("/db");
        io.create_dir_all(dir).unwrap();
        assert!(io.exists(dir));
        let f = dir.join("a.log");
        io.append(&f, b"hel").unwrap();
        io.append(&f, b"lo").unwrap();
        assert_eq!(io.read(&f).unwrap(), b"hello");
        io.truncate(&f, 4).unwrap();
        assert_eq!(io.read(&f).unwrap(), b"hell");
        io.write(&f, b"x").unwrap();
        assert_eq!(io.read(&f).unwrap(), b"x");
        let g = dir.join("b.log");
        io.rename(&f, &g).unwrap();
        assert!(!io.exists(&f));
        assert_eq!(io.list(dir).unwrap(), vec![g.clone()]);
        io.remove_file(&g).unwrap();
        assert!(io.read(&g).is_err());
    }

    #[test]
    fn crash_drops_unsynced_bytes() {
        let io = MemIo::new();
        let f = Path::new("/w.log");
        io.append(f, b"synced").unwrap();
        io.fsync(f).unwrap();
        io.append(f, b"-volatile").unwrap();
        io.crash();
        assert_eq!(io.read(f).unwrap(), b"synced");
        // A file never fsynced loses everything.
        let g = Path::new("/never-synced");
        io.write(g, b"gone").unwrap();
        io.crash();
        assert_eq!(io.read(g).unwrap(), b"");
        // Truncation caps the synced prefix too.
        io.write(f, b"abcdef").unwrap();
        io.fsync(f).unwrap();
        io.truncate(f, 3).unwrap();
        io.crash();
        assert_eq!(io.read(f).unwrap(), b"abc");
    }

    #[test]
    fn fault_io_tears_the_failing_write_and_stays_dead() {
        let io = FaultIo::new(MemIo::new(), 2);
        let f = Path::new("/w.log");
        io.append(f, b"aaaa").unwrap();
        io.append(f, b"bbbb").unwrap();
        // Third mutating op: torn — half the payload lands, then error.
        let err = io.append(f, b"cccc").unwrap_err();
        assert_eq!(err.kind(), INJECTED_FAULT);
        assert_eq!(io.inner().read(f).unwrap(), b"aaaabbbbcc");
        // Everything after the crash keeps failing.
        assert!(io.append(f, b"d").is_err());
        assert!(io.fsync(f).is_err());
        assert!(io.read(f).is_ok(), "reads survive for recovery");
    }

    #[test]
    fn atomic_write_replaces_or_preserves() {
        let io = MemIo::new();
        let dir = Path::new("/db");
        io.create_dir_all(dir).unwrap();
        let target = dir.join("MANIFEST");
        io.write(&target, b"old").unwrap();

        // Crash during the temp write: target untouched.
        let faulty = FaultIo::new(&io, 0);
        assert!(atomic_write_with(&faulty, &target, b"newer").is_err());
        assert_eq!(io.read(&target).unwrap(), b"old");

        // Crash after rename: replacement already complete.
        let faulty = FaultIo::new(&io, 3);
        assert!(atomic_write_with(&faulty, &target, b"newer").is_err());
        assert_eq!(io.read(&target).unwrap(), b"newer");

        // No faults: clean replacement, no temp file left behind.
        atomic_write_with(&io, &target, b"newest").unwrap();
        assert_eq!(io.read(&target).unwrap(), b"newest");
        assert_eq!(io.list(dir).unwrap().len(), 1);
    }
}
