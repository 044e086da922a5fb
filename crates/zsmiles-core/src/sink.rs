//! Byte sinks for out-of-core archive writing — the write-side mirror of
//! [`crate::source`].
//!
//! The read path pays off because [`crate::source::ArchiveSource`] only
//! transfers the ranges a reader asks for. The write path needs the dual
//! contract: [`ArchiveSink`] is an append-mostly byte consumer that a
//! [`crate::writer::ArchiveWriter`] can stream compressed spans into
//! without ever materializing the container — plus one positioned-write
//! escape hatch, `write_at`, for the single place the `.zsa` format needs
//! it (the fixed-size header at offset 0 carries `payload_len`, which a
//! streaming writer only knows at finalize; it writes a placeholder up
//! front and patches it once).
//!
//! Implementations:
//!
//! * [`FileSink`] — a file on disk; appends are ordinary buffered-free
//!   sequential writes, the header patch is positioned I/O (`pwrite` on
//!   unix, a seek-and-restore fallback elsewhere).
//! * [`InMemorySink`] — an owned `Vec<u8>`, for tests and in-process
//!   container assembly.
//! * [`CountingSink`] — a transparent wrapper that meters appends,
//!   bytes and patches; it is how the test suite *proves* the streaming
//!   writer's memory stays bounded while the container grows unbounded.

use crate::error::ZsmilesError;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// An append-oriented byte container an [`crate::writer::ArchiveWriter`]
/// streams a `.zsa` into. `position()` is the append cursor (= bytes
/// written so far); `write_at` may only touch bytes *before* it, so a
/// sink never needs to model holes.
pub trait ArchiveSink {
    /// Append `buf` at the current position.
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError>;

    /// Overwrite `buf.len()` bytes at `offset`. The whole range must lie
    /// inside the already-written region — this is a patch primitive
    /// (header fixup), not random-access writing.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError>;

    /// Bytes appended so far (the offset the next `append` lands at).
    fn position(&self) -> u64;

    /// Flush buffered bytes to the underlying medium.
    fn flush(&mut self) -> Result<(), ZsmilesError>;
}

/// Shared patch-range check so out-of-range patches fail identically
/// everywhere.
fn check_patch(written: u64, offset: u64, len: usize) -> Result<(), ZsmilesError> {
    match offset.checked_add(len as u64) {
        Some(end) if end <= written => Ok(()),
        _ => Err(ZsmilesError::SourceOutOfBounds {
            offset,
            len,
            available: written,
        }),
    }
}

/// An owned in-memory container image being assembled.
#[derive(Debug, Clone, Default)]
pub struct InMemorySink {
    bytes: Vec<u8>,
}

impl InMemorySink {
    pub fn new() -> Self {
        InMemorySink::default()
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl ArchiveSink for InMemorySink {
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.bytes.extend_from_slice(buf);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError> {
        check_patch(self.bytes.len() as u64, offset, buf.len())?;
        let at = offset as usize;
        self.bytes[at..at + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    fn position(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn flush(&mut self) -> Result<(), ZsmilesError> {
        Ok(())
    }
}

/// A `.zsa` file being written on disk. Appends advance the file cursor;
/// the header patch uses positioned I/O so it never disturbs it.
#[derive(Debug)]
pub struct FileSink {
    file: File,
    written: u64,
}

impl FileSink {
    /// Create (truncate) `path` for writing.
    pub fn create(path: &Path) -> Result<FileSink, ZsmilesError> {
        Ok(FileSink {
            file: File::create(path)?,
            written: 0,
        })
    }
}

impl ArchiveSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.file.write_all(buf)?;
        self.written += buf.len() as u64;
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError> {
        check_patch(self.written, offset, buf.len())?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom};
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(buf)?;
            self.file.seek(SeekFrom::Start(self.written))?;
        }
        Ok(())
    }

    fn position(&self) -> u64 {
        self.written
    }

    fn flush(&mut self) -> Result<(), ZsmilesError> {
        self.file.flush()?;
        Ok(())
    }
}

/// A [`FileSink`] that only becomes visible under its real name on
/// success. Bytes stream into `.<name>.tmp` in the destination
/// directory; [`AtomicFileSink::commit`] fsyncs the file, renames it
/// over the destination, and (on unix) fsyncs the parent directory so
/// the rename itself is durable. A crash or error anywhere before
/// `commit` leaves at most a `.tmp` orphan — never a half-written file
/// that parses as the real thing. This is what makes `pack` crash-safe:
/// shards and manifests are published atomically or not at all.
#[derive(Debug)]
pub struct AtomicFileSink {
    inner: FileSink,
    tmp: std::path::PathBuf,
    dest: std::path::PathBuf,
}

impl AtomicFileSink {
    /// Start writing the file that will become `dest`. The temp name
    /// lives beside it (same filesystem, so the rename is atomic) and
    /// starts with a dot so nothing sniffs it as a deck.
    pub fn create(dest: &Path) -> Result<AtomicFileSink, ZsmilesError> {
        let name = dest
            .file_name()
            .ok_or_else(|| ZsmilesError::Io(format!("no file name in '{}'", dest.display())))?;
        let tmp = dest.with_file_name(format!(".{}.tmp", name.to_string_lossy()));
        Ok(AtomicFileSink {
            inner: FileSink::create(&tmp)?,
            tmp,
            dest: dest.to_path_buf(),
        })
    }

    /// The destination this sink will publish to.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Durably publish: flush + fsync the temp file, rename it over the
    /// destination, fsync the parent directory. Only after `commit`
    /// returns can the file be observed under its real name.
    pub fn commit(mut self) -> Result<(), ZsmilesError> {
        self.inner.flush()?;
        self.inner.file.sync_all()?;
        std::fs::rename(&self.tmp, &self.dest)?;
        // Durability of the rename itself: fsync the directory entry.
        // Failure here is ignorable only in the sense that the rename
        // already happened; report it anyway so callers can decide.
        sync_parent_dir(&self.dest)?;
        Ok(())
    }

    /// Publish without durability: flush and rename, but defer the file
    /// and directory fsyncs to the returned [`DeferredSync`]. The file is
    /// immediately visible and complete *in the page cache* — a crash
    /// (`kill -9`) cannot hurt it, only a power loss before the deferred
    /// `sync()` runs can. Batch writers use this to keep fsync latency
    /// off the packing critical path, then sync every shard plus the
    /// parent directory once, right before the manifest — the actual
    /// atomic commit point — is published with a full `commit`.
    pub fn commit_deferred(mut self) -> Result<DeferredSync, ZsmilesError> {
        self.inner.flush()?;
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok(DeferredSync {
            file: self.inner.file,
            dest: self.dest,
        })
    }

    /// Abandon the write and remove the temp file. Called on error
    /// paths; a process killed before this ran leaves only the inert
    /// `.tmp` orphan.
    pub fn discard(self) {
        drop(self.inner);
        std::fs::remove_file(&self.tmp).ok();
    }
}

/// Fsync the directory entry holding `path`, so a rename into it is
/// durable. A no-op on non-unix targets (directory fsync is a unix
/// idiom; elsewhere the rename is as durable as the platform makes it).
pub fn sync_parent_dir(path: &Path) -> Result<(), ZsmilesError> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// A published-but-not-yet-durable file from
/// [`AtomicFileSink::commit_deferred`]: the rename has happened, the
/// fsync has not. Call [`DeferredSync::sync`] before anything that
/// *depends* on this file becomes durable itself.
#[derive(Debug)]
pub struct DeferredSync {
    file: File,
    dest: std::path::PathBuf,
}

impl DeferredSync {
    /// The published path awaiting its fsync.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Make the file contents durable. Does **not** fsync the parent
    /// directory — callers batching many deferred syncs into one
    /// directory should follow up with a single
    /// [`sync_parent_dir`] call.
    pub fn sync(self) -> Result<(), ZsmilesError> {
        self.file.sync_all()?;
        Ok(())
    }
}

impl ArchiveSink for AtomicFileSink {
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.inner.append(buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.inner.write_at(offset, buf)
    }

    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn flush(&mut self) -> Result<(), ZsmilesError> {
        self.inner.flush()
    }
}

/// Wraps any sink and counts traffic: appends, bytes appended, patches.
#[derive(Debug, Default)]
pub struct CountingSink<K> {
    inner: K,
    appends: u64,
    bytes: u64,
    patches: u64,
}

impl<K> CountingSink<K> {
    pub fn new(inner: K) -> Self {
        CountingSink {
            inner,
            appends: 0,
            bytes: 0,
            patches: 0,
        }
    }

    /// Number of `append` calls so far.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Total bytes appended so far.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes
    }

    /// Number of `write_at` patches so far.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    pub fn inner(&self) -> &K {
        &self.inner
    }

    pub fn into_inner(self) -> K {
        self.inner
    }
}

impl<K: ArchiveSink> ArchiveSink for CountingSink<K> {
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.inner.append(buf)?;
        self.appends += 1;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError> {
        self.inner.write_at(offset, buf)?;
        self.patches += 1;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn flush(&mut self) -> Result<(), ZsmilesError> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_sink_appends_and_patches() {
        let mut sink = InMemorySink::new();
        assert_eq!(sink.position(), 0);
        sink.append(b"________").unwrap();
        sink.append(b"payload").unwrap();
        assert_eq!(sink.position(), 15);
        sink.write_at(0, b"HEADER!!").unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.bytes(), b"HEADER!!payload");
        assert_eq!(sink.into_bytes(), b"HEADER!!payload");
    }

    #[test]
    fn patches_outside_the_written_region_are_errors() {
        let mut sink = InMemorySink::new();
        sink.append(b"0123456789").unwrap();
        for (offset, len) in [(8u64, 3usize), (10, 1), (u64::MAX, 1)] {
            let err = sink.write_at(offset, &vec![0u8; len]).unwrap_err();
            assert!(
                matches!(err, ZsmilesError::SourceOutOfBounds { .. }),
                "offset={offset} len={len}: {err}"
            );
        }
        // Patch ending exactly at the cursor is fine.
        sink.write_at(8, b"XY").unwrap();
        assert_eq!(&sink.bytes()[8..], b"XY");
    }

    #[test]
    fn file_sink_round_trips_through_disk() {
        let path =
            std::env::temp_dir().join(format!("zsmiles_test_sink_{}.bin", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.append(b"????").unwrap();
        sink.append(b"tail").unwrap();
        sink.write_at(0, b"head").unwrap();
        assert_eq!(sink.position(), 8);
        assert!(sink.write_at(6, b"xxx").is_err(), "patch past cursor");
        sink.append(b"more").unwrap();
        sink.flush().unwrap();
        drop(sink);
        assert_eq!(std::fs::read(&path).unwrap(), b"headtailmore");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_sink_publishes_only_on_commit() {
        let dir = std::env::temp_dir().join(format!("zsmiles_atomic_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("out.bin");

        // Uncommitted: the destination never appears.
        let mut sink = AtomicFileSink::create(&dest).unwrap();
        sink.append(b"half-done").unwrap();
        assert!(!dest.exists(), "nothing visible before commit");
        assert!(dir.join(".out.bin.tmp").exists(), "temp lives beside dest");
        sink.discard();
        assert!(!dir.join(".out.bin.tmp").exists(), "discard removes temp");
        assert!(!dest.exists());

        // Committed: full contents under the real name, temp gone.
        let mut sink = AtomicFileSink::create(&dest).unwrap();
        sink.append(b"????").unwrap();
        sink.append(b"tail").unwrap();
        sink.write_at(0, b"head").unwrap();
        assert_eq!(sink.position(), 8);
        sink.commit().unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"headtail");
        assert!(!dir.join(".out.bin.tmp").exists());

        // Commit over an existing file replaces it atomically.
        let mut sink = AtomicFileSink::create(&dest).unwrap();
        sink.append(b"second").unwrap();
        sink.commit().unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"second");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deferred_commit_publishes_then_syncs() {
        let dir =
            std::env::temp_dir().join(format!("zsmiles_deferred_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("out.bin");

        let mut sink = AtomicFileSink::create(&dest).unwrap();
        sink.append(b"????").unwrap();
        sink.append(b"tail").unwrap();
        sink.write_at(0, b"head").unwrap();
        let deferred = sink.commit_deferred().unwrap();
        // Visible and complete under the real name before the fsync.
        assert_eq!(deferred.dest(), dest.as_path());
        assert_eq!(std::fs::read(&dest).unwrap(), b"headtail");
        assert!(!dir.join(".out.bin.tmp").exists());
        deferred.sync().unwrap();
        sync_parent_dir(&dest).unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"headtail");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counting_sink_meters_traffic() {
        let mut sink = CountingSink::new(InMemorySink::new());
        sink.append(b"abc").unwrap();
        sink.append(b"de").unwrap();
        sink.write_at(1, b"X").unwrap();
        assert_eq!(
            (sink.appends(), sink.bytes_appended(), sink.patches()),
            (2, 5, 1)
        );
        assert_eq!(sink.position(), 5);
        assert_eq!(sink.into_inner().into_bytes(), b"aXcde");
    }
}
