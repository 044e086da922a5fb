//! Byte-range sources for out-of-core archive reading.
//!
//! The `.zsa` random-access story only pays off when a reader transfers
//! the bytes it needs and nothing else — the FSST argument, applied to
//! billion-line screening decks that do not fit in RAM. [`ArchiveSource`]
//! is that contract: a positioned `read_at` over an immutable byte
//! container, `pread`-style, with shared (`&self`) access so any number
//! of worker threads can fetch lines concurrently.
//!
//! Implementations:
//!
//! * [`FileSource`] — a `.zsa` file on disk, read with positioned I/O
//!   (`pread` on unix; a seek-guarded fallback elsewhere). No part of the
//!   payload is resident beyond the ranges a caller asks for.
//! * [`MmapSource`] — the same file mapped read-only into the address
//!   space with direct `mmap(2)` bindings (no crates): `read_at` becomes
//!   a bounds-checked memcpy with no syscall per fetch, and the kernel's
//!   page cache is the only residency. Falls back to [`FileSource`]
//!   behaviour on platforms without the bindings.
//! * [`CachedSource`] — a thin per-source adapter over the process-wide
//!   sharded LRU [`crate::cache::BlockCache`]: aligned blocks keyed
//!   `(archive_id, block)`, shared safely by concurrent readers.
//! * [`AutoSource`] — the policy in one place: mmap when the platform
//!   has it, cached positioned I/O otherwise. [`crate::shard::ShardedReader`]
//!   (so the CLI and the server) and [`crate::check::check_deck`] open
//!   every archive file through it.
//! * [`InMemorySource`] — an owned byte buffer, for archives already in
//!   memory. `&[u8]` implements the trait too, for zero-copy views.
//! * [`CountingSource`] — a transparent wrapper that counts read calls
//!   and bytes transferred; it is how the test suite *proves* `get(line)`
//!   touches only metadata plus one line's range.

use crate::cache::BlockCache;
use crate::error::ZsmilesError;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A random-access byte container an [`crate::reader::ArchiveReader`] can
/// serve line fetches from. Object-safe; all access is through `&self` so
/// one source can back concurrent readers.
pub trait ArchiveSource {
    /// Total size of the container in bytes.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill `buf` with the bytes at `offset..offset + buf.len()`.
    /// Reads past the end are an error ([`ZsmilesError::SourceOutOfBounds`]),
    /// never a short read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError>;

    /// Convenience: read `len` bytes at `offset` into a fresh buffer.
    fn read_range(&self, offset: u64, len: usize) -> Result<Vec<u8>, ZsmilesError> {
        let mut buf = vec![0u8; len];
        self.read_at(offset, &mut buf)?;
        Ok(buf)
    }
}

/// Bounds check shared by every implementation, so out-of-range requests
/// fail identically everywhere.
fn check_bounds(available: u64, offset: u64, len: usize) -> Result<(), ZsmilesError> {
    match offset.checked_add(len as u64) {
        Some(end) if end <= available => Ok(()),
        _ => Err(ZsmilesError::SourceOutOfBounds {
            offset,
            len,
            available,
        }),
    }
}

impl ArchiveSource for [u8] {
    fn len(&self) -> u64 {
        <[u8]>::len(self) as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        check_bounds(<[u8]>::len(self) as u64, offset, buf.len())?;
        let at = offset as usize;
        buf.copy_from_slice(&self[at..at + buf.len()]);
        Ok(())
    }
}

impl<S: ArchiveSource + ?Sized> ArchiveSource for &S {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        (**self).read_at(offset, buf)
    }
}

/// An owned in-memory archive image. The all-in-RAM convenience case —
/// [`crate::Archive`] reading is built on it.
#[derive(Debug, Clone, Default)]
pub struct InMemorySource {
    bytes: Vec<u8>,
}

impl InMemorySource {
    pub fn new(bytes: Vec<u8>) -> Self {
        InMemorySource { bytes }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl From<Vec<u8>> for InMemorySource {
    fn from(bytes: Vec<u8>) -> Self {
        InMemorySource { bytes }
    }
}

impl ArchiveSource for InMemorySource {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        self.bytes.as_slice().read_at(offset, buf)
    }
}

/// A `.zsa` file on disk, read with positioned I/O. The file stays on
/// disk; only requested ranges are transferred, so archives far larger
/// than RAM serve O(1) line fetches.
#[derive(Debug)]
pub struct FileSource {
    file: File,
    len: u64,
    /// Positioned reads need a seek on platforms without `pread`; the
    /// guard keeps concurrent readers from interleaving seek/read pairs.
    #[cfg(not(unix))]
    seek_guard: std::sync::Mutex<()>,
}

impl FileSource {
    pub fn open(path: &Path) -> Result<FileSource, ZsmilesError> {
        FileSource::from_file(File::open(path)?)
    }

    pub fn from_file(file: File) -> Result<FileSource, ZsmilesError> {
        let len = file.metadata()?.len();
        Ok(FileSource {
            file,
            len,
            #[cfg(not(unix))]
            seek_guard: std::sync::Mutex::new(()),
        })
    }
}

impl ArchiveSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        check_bounds(self.len, offset, buf.len())?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _guard = self.seek_guard.lock().expect("seek guard poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)?;
        }
        Ok(())
    }
}

/// Raw `mmap(2)`/`munmap(2)` bindings. Declared directly (the workspace
/// is hermetic — no `libc` crate); the constants below are identical on
/// every 64-bit unix this crate targets (Linux, macOS, the BSDs).
#[cfg(all(unix, target_pointer_width = "64"))]
mod mmap_sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A `.zsa` file mapped read-only into the address space.
///
/// `read_at` becomes a bounds-checked `memcpy` from the mapping — no
/// syscall per fetch, no user-space residency beyond what the kernel's
/// page cache already keeps — which is what turns `get(line)` from a
/// `pread` round trip into a few hundred nanoseconds. The mapping is
/// `PROT_READ`/`MAP_SHARED` over the whole file and is unmapped on drop.
///
/// **Immutability contract:** `.zsa` archives are finalized files; the
/// reader stack never maps a file that is still being written. Truncating
/// a mapped archive out from under a reader is undefined at the OS level
/// (`SIGBUS` on fault) exactly as it is for every mmap consumer — the
/// same operational rule as for `pread` readers, enforced one level
/// harder.
///
/// On platforms without the bindings (non-unix, or 32-bit targets where
/// the raw `off_t` ABI is not uniform) `MmapSource` transparently falls
/// back to positioned file I/O; [`MmapSource::is_mapped`] reports which
/// mode is live so callers can surface it.
#[cfg(all(unix, target_pointer_width = "64"))]
#[derive(Debug)]
pub struct MmapSource {
    /// Base of the mapping; null for empty files (nothing to map).
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only and private to this value for writes
// (there are none); concurrent `read_at` calls only ever read the
// immutable mapped bytes.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MmapSource {}
// SAFETY: as for `Send`: shared access only ever reads the immutable
// mapping.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MmapSource {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl MmapSource {
    pub fn open(path: &Path) -> Result<MmapSource, ZsmilesError> {
        MmapSource::from_file(&File::open(path)?)
    }

    /// Map an already-open file. The file handle is not retained — the
    /// mapping outlives it by POSIX semantics.
    pub fn from_file(file: &File) -> Result<MmapSource, ZsmilesError> {
        use std::os::unix::io::AsRawFd;
        let len64 = file.metadata()?.len();
        let len = usize::try_from(len64)
            .map_err(|_| ZsmilesError::Io(format!("file too large to map: {len64} bytes")))?;
        if len == 0 {
            return Ok(MmapSource {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: null addr + PROT_READ + MAP_SHARED over a real fd is
        // the plain read-only whole-file mapping; failure is reported as
        // MAP_FAILED (-1) with errno set, checked below.
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as usize == usize::MAX {
            return Err(ZsmilesError::Io(format!(
                "mmap failed: {}",
                std::io::Error::last_os_error()
            )));
        }
        Ok(MmapSource { ptr, len })
    }

    /// Whether reads are actually served from a mapping (always true on
    /// this platform; the fallback build reports false).
    pub fn is_mapped(&self) -> bool {
        true
    }

    /// Bytes of address space the mapping covers.
    pub fn bytes_mapped(&self) -> u64 {
        self.len as u64
    }

    /// Zero-copy view of the whole archive image.
    pub fn as_bytes(&self) -> &[u8] {
        if self.ptr.is_null() {
            &[]
        } else {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `munmap` in `Drop`, and never written.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MmapSource {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: `ptr`/`len` are the exact mapping from `from_file`;
            // unmapping a valid mapping cannot fail in a way we could
            // recover from in a destructor, so the result is ignored.
            unsafe {
                mmap_sys::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl ArchiveSource for MmapSource {
    fn len(&self) -> u64 {
        self.len as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        check_bounds(self.len as u64, offset, buf.len())?;
        let at = offset as usize;
        buf.copy_from_slice(&self.as_bytes()[at..at + buf.len()]);
        Ok(())
    }
}

/// Fallback `MmapSource` for platforms without the raw bindings:
/// positioned file I/O with the same API, so callers compile unchanged.
#[cfg(not(all(unix, target_pointer_width = "64")))]
#[derive(Debug)]
pub struct MmapSource {
    inner: FileSource,
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
impl MmapSource {
    pub fn open(path: &Path) -> Result<MmapSource, ZsmilesError> {
        Ok(MmapSource {
            inner: FileSource::open(path)?,
        })
    }

    pub fn from_file(file: &File) -> Result<MmapSource, ZsmilesError> {
        Ok(MmapSource {
            inner: FileSource::from_file(file.try_clone()?)?,
        })
    }

    pub fn is_mapped(&self) -> bool {
        false
    }

    pub fn bytes_mapped(&self) -> u64 {
        0
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
impl ArchiveSource for MmapSource {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        self.inner.read_at(offset, buf)
    }
}

/// Default aligned-block size for [`CachedSource`] (256 KiB — a few
/// thousand compressed lines per transfer).
pub const DEFAULT_CACHE_BLOCK: usize = 256 << 10;

/// A thin per-source adapter over the shared sharded LRU
/// [`BlockCache`].
///
/// Random-access loops over a `.zsa` — a campaign fetching a run of hits,
/// the CLI printing `--count` consecutive lines — issue many small
/// `read_at`s that land near each other. `CachedSource` maps them onto
/// aligned blocks in a [`BlockCache`]: a miss loads one whole block from
/// the inner source; neighbouring reads then hit resident bytes. By
/// default every `CachedSource` in the process shares
/// [`BlockCache::global`] — concurrent readers over one archive (or
/// many) populate and reuse a single pool, each under its own
/// `archive_id` so blocks never alias across files. Requests at or above
/// the block size bypass the cache entirely, so batched iteration does
/// not thrash it.
///
/// The per-source hit/miss counters report this source's traffic only;
/// [`BlockCache::stats`] aggregates the pool. Dropping a `CachedSource`
/// forgets its blocks, so short-lived sources do not pin budget.
#[derive(Debug)]
pub struct CachedSource<S> {
    /// Declared first so it drops first: the blocks leave the pool before
    /// the inner source closes.
    slot: CacheSlot,
    inner: S,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A source's registration in a [`BlockCache`]; dropping it forgets the
/// source's blocks and releases its hold on the cache.
#[derive(Debug)]
struct CacheSlot {
    cache: Arc<BlockCache>,
    archive_id: u64,
}

impl Drop for CacheSlot {
    fn drop(&mut self) {
        self.cache.forget_archive(self.archive_id);
    }
}

impl<S: ArchiveSource> CachedSource<S> {
    /// Adapter over the process-global [`BlockCache::global`] pool.
    pub fn new(inner: S) -> Self {
        CachedSource::with_cache(inner, Arc::clone(BlockCache::global()))
    }

    /// Adapter over a specific (possibly private) cache.
    pub fn with_cache(inner: S, cache: Arc<BlockCache>) -> Self {
        let archive_id = cache.register_archive();
        CachedSource {
            slot: CacheSlot { cache, archive_id },
            inner,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Adapter over a fresh private cache with the given block size (a
    /// few dozen blocks of budget) — for tests and tools that want
    /// deterministic residency instead of the shared pool.
    pub fn with_block_size(inner: S, block_size: usize) -> Self {
        let block_size = block_size.max(1);
        CachedSource::with_cache(
            inner,
            Arc::new(BlockCache::new(
                block_size,
                block_size.saturating_mul(4 * crate::cache::SHARD_COUNT),
            )),
        )
    }

    /// Reads (per covering block) served from resident bytes.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Reads (per covering block) that loaded from the inner source,
    /// plus block-sized bypasses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The cache this source populates.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.slot.cache
    }

    /// Retire this source's blocks from the pool *now*, without waiting
    /// for drop — the hook a serving process uses when it flips to a new
    /// dataset generation and wants the old archive's budget back
    /// immediately. Returns how many resident blocks left the pool; the
    /// eventual drop re-forgets harmlessly (0). The source stays usable:
    /// later reads simply reload.
    pub fn retire(&self) -> u64 {
        self.slot.cache.forget_archive(self.slot.archive_id)
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap the inner source; this source's blocks leave the pool.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ArchiveSource> ArchiveSource for CachedSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        let available = self.inner.len();
        check_bounds(available, offset, buf.len())?;
        if buf.is_empty() {
            return Ok(());
        }
        let bs = self.slot.cache.block_size() as u64;
        if buf.len() as u64 >= bs {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return self.inner.read_at(offset, buf);
        }
        let first = offset / bs;
        let last = (offset + buf.len() as u64 - 1) / bs;
        let mut filled = 0usize;
        for block in first..=last {
            let block_start = block * bs;
            let block_len = bs.min(available - block_start) as usize;
            let (bytes, hit) = self
                .slot
                .cache
                .get_or_load(self.slot.archive_id, block, || {
                    self.inner.read_range(block_start, block_len)
                })?;
            if hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            let at = (offset + filled as u64 - block_start) as usize;
            let take = (buf.len() - filled).min(bytes.len() - at);
            buf[filled..filled + take].copy_from_slice(&bytes[at..at + take]);
            filled += take;
        }
        debug_assert_eq!(filled, buf.len(), "covering blocks fill the request");
        Ok(())
    }
}

/// The default way to open an archive file for reading: mmap where the
/// platform supports it, shared-cache positioned I/O everywhere else
/// (including filesystems where `mmap` itself fails at run time).
///
/// [`crate::shard::ShardedReader::open`] builds on this for every file of
/// a deck; the CLI surfaces which mode is live via
/// [`AutoSource::bytes_mapped`] and [`AutoSource::cache_counters`] in
/// `--verbose` reports.
#[derive(Debug)]
pub enum AutoSource {
    /// Zero-syscall reads from a live mapping.
    Mmap(MmapSource),
    /// Positioned I/O through the shared block cache.
    Cached(CachedSource<FileSource>),
}

impl AutoSource {
    pub fn open(path: &Path) -> Result<AutoSource, ZsmilesError> {
        if let Ok(m) = MmapSource::open(path) {
            if m.is_mapped() {
                return Ok(AutoSource::Mmap(m));
            }
        }
        // mmap unavailable (platform or filesystem): cached file I/O.
        Ok(AutoSource::Cached(CachedSource::new(FileSource::open(
            path,
        )?)))
    }

    /// Force the cached-file path (benchmarks and tests that want to
    /// exercise the block cache on a platform where mmap would win).
    pub fn open_cached(path: &Path) -> Result<AutoSource, ZsmilesError> {
        Ok(AutoSource::Cached(CachedSource::new(FileSource::open(
            path,
        )?)))
    }

    /// Force the cached-file path against a specific (possibly private)
    /// pool — a serving process giving each tenant its own budget, or a
    /// test that wants deterministic residency.
    pub fn open_cached_with(
        path: &Path,
        cache: Arc<BlockCache>,
    ) -> Result<AutoSource, ZsmilesError> {
        Ok(AutoSource::Cached(CachedSource::with_cache(
            FileSource::open(path)?,
            cache,
        )))
    }

    /// `"mmap"` or `"cached-file"` — for human-readable reports.
    pub fn mode(&self) -> &'static str {
        match self {
            AutoSource::Mmap(_) => "mmap",
            AutoSource::Cached(_) => "cached-file",
        }
    }

    /// Bytes of address space mapped (0 for the cached-file mode).
    pub fn bytes_mapped(&self) -> u64 {
        match self {
            AutoSource::Mmap(m) => m.bytes_mapped(),
            AutoSource::Cached(_) => 0,
        }
    }

    /// This source's `(hits, misses)` against the shared block cache
    /// (`None` in mmap mode — there is no cache in the path).
    pub fn cache_counters(&self) -> Option<(u64, u64)> {
        match self {
            AutoSource::Mmap(_) => None,
            AutoSource::Cached(c) => Some((c.hits(), c.misses())),
        }
    }

    /// Retire this source's blocks from its pool now (see
    /// [`CachedSource::retire`]); 0 in mmap mode, where no cache holds
    /// anything on the archive's behalf.
    pub fn retire_cached_blocks(&self) -> u64 {
        match self {
            AutoSource::Mmap(_) => 0,
            AutoSource::Cached(c) => c.retire(),
        }
    }
}

impl ArchiveSource for AutoSource {
    fn len(&self) -> u64 {
        match self {
            AutoSource::Mmap(m) => m.len(),
            AutoSource::Cached(c) => c.len(),
        }
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        match self {
            AutoSource::Mmap(m) => m.read_at(offset, buf),
            AutoSource::Cached(c) => c.read_at(offset, buf),
        }
    }
}

/// Wraps any source and counts traffic. Counters are atomic, so a shared
/// counting source observes all concurrent readers.
#[derive(Debug, Default)]
pub struct CountingSource<S> {
    inner: S,
    reads: AtomicU64,
    bytes: AtomicU64,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            reads: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Number of `read_at` calls issued so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Total bytes transferred so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Reset both counters (e.g. after open, to meter only line fetches).
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ArchiveSource> ArchiveSource for CountingSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        self.inner.read_at(offset, buf)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_reads_exact_ranges() {
        let data: &[u8] = b"hello archive world";
        assert_eq!(ArchiveSource::len(data), 19);
        assert_eq!(data.read_range(6, 7).unwrap(), b"archive");
        assert_eq!(data.read_range(0, 0).unwrap(), b"");
        assert_eq!(data.read_range(19, 0).unwrap(), b"");
    }

    #[test]
    fn reads_past_eof_are_errors_not_short_reads() {
        let data: &[u8] = b"0123456789";
        for (offset, len) in [(8u64, 3usize), (10, 1), (11, 0), (u64::MAX, 1)] {
            let err = data.read_range(offset, len).unwrap_err();
            assert!(
                matches!(err, ZsmilesError::SourceOutOfBounds { .. }),
                "offset={offset} len={len}: {err}"
            );
        }
    }

    #[test]
    fn in_memory_source_matches_slice_behaviour() {
        let src = InMemorySource::new(b"0123456789".to_vec());
        assert_eq!(src.len(), 10);
        assert_eq!(src.read_range(3, 4).unwrap(), b"3456");
        assert!(src.read_range(9, 2).is_err());
        assert_eq!(src.bytes(), b"0123456789");
    }

    #[test]
    fn file_source_positioned_reads() {
        let path = std::env::temp_dir().join("zsmiles_test_source.bin");
        std::fs::write(&path, b"abcdefghij").unwrap();
        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.len(), 10);
        assert_eq!(src.read_range(2, 3).unwrap(), b"cde");
        assert_eq!(src.read_range(0, 10).unwrap(), b"abcdefghij");
        assert!(matches!(
            src.read_range(5, 6).unwrap_err(),
            ZsmilesError::SourceOutOfBounds { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_source_matches_file_source_and_error_parity() {
        let path = std::env::temp_dir().join("zsmiles_test_mmap.bin");
        let data: Vec<u8> = (0..=255u8).cycle().take(4096 + 17).collect();
        std::fs::write(&path, &data).unwrap();
        let mapped = MmapSource::open(&path).unwrap();
        let file = FileSource::open(&path).unwrap();
        assert_eq!(mapped.len(), file.len());
        for (offset, len) in [(0u64, 1usize), (17, 100), (4095, 2), (4096, 17), (4113, 0)] {
            assert_eq!(
                mapped.read_range(offset, len).unwrap(),
                file.read_range(offset, len).unwrap(),
                "offset={offset} len={len}"
            );
        }
        // Past-EOF requests fail with the same error shape.
        for (offset, len) in [(4113u64, 1usize), (u64::MAX, 1), (4000, 1000)] {
            assert!(matches!(
                mapped.read_range(offset, len).unwrap_err(),
                ZsmilesError::SourceOutOfBounds { .. }
            ));
        }
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            assert!(mapped.is_mapped());
            assert_eq!(mapped.bytes_mapped(), data.len() as u64);
            assert_eq!(mapped.as_bytes(), &data[..]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_source_handles_empty_files() {
        let path = std::env::temp_dir().join("zsmiles_test_mmap_empty.bin");
        std::fs::write(&path, b"").unwrap();
        let mapped = MmapSource::open(&path).unwrap();
        assert_eq!(mapped.len(), 0);
        assert!(mapped.is_empty());
        assert_eq!(mapped.read_range(0, 0).unwrap(), b"");
        assert!(mapped.read_range(0, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_source_serves_aligned_blocks_from_memory() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let src = CachedSource::with_block_size(
            CountingSource::new(InMemorySource::new(data.clone())),
            64,
        );
        // First read loads the covering 64-byte block (offset 64..128).
        assert_eq!(src.read_range(100, 10).unwrap(), &data[100..110]);
        assert_eq!((src.hits(), src.misses()), (0, 1));
        assert_eq!(src.inner().reads(), 1);
        // A read spanning blocks 1..=2 hits block 1, loads block 2.
        assert_eq!(src.read_range(110, 50).unwrap(), &data[110..160]);
        assert_eq!((src.hits(), src.misses()), (1, 2));
        // Fully resident rereads transfer nothing.
        assert_eq!(src.read_range(100, 10).unwrap(), &data[100..110]);
        assert_eq!(src.read_range(130, 20).unwrap(), &data[130..150]);
        assert_eq!((src.hits(), src.misses()), (3, 2));
        assert_eq!(src.inner().reads(), 2, "no further inner transfer");
        // A distant block: one new fill.
        assert_eq!(src.read_range(500, 4).unwrap(), &data[500..504]);
        assert_eq!((src.hits(), src.misses()), (3, 3));
        // Block-sized and larger requests bypass the cache.
        assert_eq!(src.read_range(0, 64).unwrap(), &data[..64]);
        assert_eq!((src.hits(), src.misses()), (3, 4));
        // The trailing block is clamped to EOF instead of erroring.
        assert_eq!(src.read_range(990, 10).unwrap(), &data[990..]);
        // Out-of-bounds requests still fail identically.
        assert!(matches!(
            src.read_range(995, 10).unwrap_err(),
            ZsmilesError::SourceOutOfBounds { .. }
        ));
    }

    #[test]
    fn cached_sources_share_one_pool_without_aliasing() {
        let cache = Arc::new(BlockCache::new(32, 1 << 16));
        let a = CachedSource::with_cache(InMemorySource::new(vec![b'a'; 256]), Arc::clone(&cache));
        let b = CachedSource::with_cache(InMemorySource::new(vec![b'b'; 256]), Arc::clone(&cache));
        assert_eq!(a.read_range(0, 8).unwrap(), vec![b'a'; 8]);
        assert_eq!(b.read_range(0, 8).unwrap(), vec![b'b'; 8]);
        assert_eq!(cache.stats().resident_blocks, 2, "same block id, two keys");
        // Dropping a source releases its residency in the shared pool.
        drop(a);
        assert_eq!(cache.stats().resident_blocks, 1);
        assert_eq!(b.read_range(0, 8).unwrap(), vec![b'b'; 8]);
        assert_eq!((b.hits(), b.misses()), (1, 1));
        let inner = b.into_inner();
        assert_eq!(cache.stats().resident_blocks, 0);
        assert_eq!(inner.bytes().len(), 256);
    }

    #[test]
    fn into_inner_and_drop_release_the_cache() {
        let cache = Arc::new(BlockCache::new(32, 1 << 16));
        let before = Arc::strong_count(&cache);
        for unwrap in [true, false] {
            let src =
                CachedSource::with_cache(InMemorySource::new(vec![7; 64]), Arc::clone(&cache));
            src.read_range(0, 8).unwrap();
            assert_eq!(Arc::strong_count(&cache), before + 1);
            if unwrap {
                assert_eq!(src.into_inner().bytes().len(), 64);
            } else {
                drop(src);
            }
            assert_eq!(Arc::strong_count(&cache), before, "unwrap={unwrap}");
            assert_eq!(cache.stats().resident_blocks, 0, "unwrap={unwrap}");
        }
    }

    #[test]
    fn auto_source_opens_and_reports_mode() {
        let path = std::env::temp_dir().join("zsmiles_test_auto.bin");
        std::fs::write(&path, b"0123456789").unwrap();
        let auto = AutoSource::open(&path).unwrap();
        assert_eq!(auto.len(), 10);
        assert_eq!(auto.read_range(3, 4).unwrap(), b"3456");
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            assert_eq!(auto.mode(), "mmap");
            assert_eq!(auto.bytes_mapped(), 10);
            assert!(auto.cache_counters().is_none());
        }
        let cached = AutoSource::open_cached(&path).unwrap();
        assert_eq!(cached.mode(), "cached-file");
        assert_eq!(cached.bytes_mapped(), 0);
        assert_eq!(cached.read_range(3, 4).unwrap(), b"3456");
        assert_eq!(cached.read_range(5, 4).unwrap(), b"5678");
        let (hits, misses) = cached.cache_counters().unwrap();
        assert_eq!((hits, misses), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_source_meters_traffic() {
        let src = CountingSource::new(InMemorySource::new(b"0123456789".to_vec()));
        assert_eq!((src.reads(), src.bytes_read()), (0, 0));
        src.read_range(0, 4).unwrap();
        src.read_range(4, 2).unwrap();
        assert_eq!((src.reads(), src.bytes_read()), (2, 6));
        // Failed reads do not count.
        assert!(src.read_range(9, 5).is_err());
        assert_eq!((src.reads(), src.bytes_read()), (2, 6));
        src.reset();
        assert_eq!((src.reads(), src.bytes_read()), (0, 0));
    }
}
