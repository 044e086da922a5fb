//! Sharded `.zsa` archives: one `.zsm` manifest plus N ordinary
//! single-file shards, read through one reader facade.
//!
//! Billion-line screening decks outgrow a single file long before they
//! outgrow a single *format* — object stores cap object sizes, parallel
//! filesystems want striping units, and re-packing a 72 TB campaign into
//! one container serializes what is an embarrassingly splittable job. A
//! sharded archive keeps every paper property (readable payload, O(1)
//! line access, embedded dictionary) by construction: each shard **is** a
//! complete, self-describing `.zsa`, and the manifest is a small readable
//! text file that orders them and records per-shard line counts, byte
//! sizes and CRCs:
//!
//! ```text
//! #zsmiles-shards v1
//! flavor base
//! lines 100000
//! shard deck.00000.zsa 10000 184062 9ab3f2e1
//! shard deck.00001.zsa 10000 183990 4710c022
//! ...
//! ```
//!
//! * [`ShardedWriter`] streams raw deck bytes exactly like
//!   [`crate::writer::ArchiveWriter`] (it drives one per shard), cutting
//!   shards by a [`ShardPolicy`] line or byte budget. With
//!   [`WriterOptions::threads`] > 1 it compresses that many complete
//!   shards **concurrently** on the persistent
//!   [`crate::parallel::WorkerPool`] — shard cuts are decided by the
//!   policy alone and manifest rows are stitched in shard order, so the
//!   output stays byte-identical to a serial pack.
//! * [`ShardedReader`] is the one deck reader. It opens the manifest,
//!   cross-checks every shard against its manifest entry (flavor, line
//!   count, file size, stored CRC, identical embedded dictionary)
//!   *without touching any payload*, and serves the
//!   [`crate::reader::ArchiveReader`] read surface — `get` / `get_range`
//!   / `get_many` / batched [`ShardedReader::lines`] / streaming
//!   [`ShardedReader::unpack_to`] — by routing global line numbers
//!   across shards with a binary search on the manifest's cumulative
//!   line table. Pointed at a bare `.zsa` it opens a one-shard deck
//!   whose manifest row is the container's own metadata, so every caller
//!   (CLI, server, screening code) works unchanged against either
//!   layout.
//! * [`DeckReader`] wraps that reader in the layout enum the benchmark
//!   harness matches on, and does nothing else.
//!
//! Line numbering is global and identical to a single-file pack of the
//! same deck: shard cuts happen between lines, per-line encoding is
//! context-free, and every shard embeds the same dictionary — so a
//! sharded pack is line-for-line byte-identical to the single-file pack,
//! a property the proptest suite pins down at random budgets.

use crate::cache::BlockCache;
use crate::compress::CompressStats;
use crate::engine::{AnyDictionary, DictFlavor};
use crate::error::ZsmilesError;
use crate::parallel::WorkerPool;
use crate::reader::{ArchiveReader, LineIter, DEFAULT_BATCH_BYTES};
use crate::sink::{sync_parent_dir, ArchiveSink, AtomicFileSink, DeferredSync};
use crate::source::{ArchiveSource, AutoSource};
use crate::writer::{ArchiveWriter, PackInfo, WriterOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How to open a deck for reading. The default picks the platform's best
/// read path per file (mmap where available, shared-block-cache positioned
/// I/O otherwise). Supplying a `cache` forces every file through cached
/// positioned I/O on that specific [`BlockCache`] — the serving layer uses
/// this so a retired generation's blocks can be dropped deterministically
/// ([`ShardedReader::retire_cached_blocks`]) without touching the global
/// cache other readers share.
#[derive(Debug, Clone, Default)]
pub struct DeckOptions {
    /// When set, open every archive file through [`crate::source::CachedSource`]
    /// on this cache instead of the platform default.
    pub cache: Option<Arc<BlockCache>>,
}

impl DeckOptions {
    fn open_source(&self, path: &Path) -> Result<AutoSource, ZsmilesError> {
        match &self.cache {
            Some(cache) => AutoSource::open_cached_with(path, Arc::clone(cache)),
            None => AutoSource::open(path),
        }
    }
}

/// First line of a v1 `.zsm` manifest (the PR 4 format).
pub const MANIFEST_MAGIC: &str = "#zsmiles-shards v1";

/// First line of a v2 `.zsm` manifest: v1 plus the optional `generation`
/// row. The writer only bumps to v2 when a generation is actually set, so
/// decks without one stay byte-identical to the historical format and
/// old readers keep working on them.
pub const MANIFEST_MAGIC_V2: &str = "#zsmiles-shards v2";

/// The magic prefix shared by every manifest version — what
/// [`is_manifest`] sniffs.
const MANIFEST_MAGIC_PREFIX: &str = "#zsmiles-shards v";

fn bad(reason: impl Into<String>) -> ZsmilesError {
    ZsmilesError::ManifestFormat {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One shard's row in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard file name, relative to the manifest's directory (a plain
    /// file name — no path separators).
    pub file: String,
    /// Ligand lines the shard stores.
    pub lines: u64,
    /// Total container bytes of the shard file.
    pub file_bytes: u64,
    /// The shard container's stored CRC32 (its footer value).
    pub crc32: u32,
}

impl ShardMeta {
    /// The row an opened container `file` earns from its own metadata:
    /// line count, file size and footer CRC. No payload byte is read.
    pub(crate) fn of<S: ArchiveSource>(file: String, reader: &ArchiveReader<S>) -> ShardMeta {
        ShardMeta {
            file,
            lines: reader.len() as u64,
            file_bytes: reader.source().len(),
            crc32: reader.container_crc(),
        }
    }
}

/// The parsed shard table of a `.zsm` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    flavor: DictFlavor,
    total_lines: u64,
    /// Dataset generation (epoch) this manifest describes; 0 for decks
    /// that never set one (every v1 manifest reads as generation 0).
    generation: u64,
    shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// A manifest over `shards`, in order. A line total past `u64::MAX`
    /// saturates; [`ShardManifest::read_from`] refuses such rows outright.
    pub fn new(flavor: DictFlavor, shards: Vec<ShardMeta>) -> ShardManifest {
        let total_lines = shards
            .iter()
            .fold(0u64, |sum, s| sum.saturating_add(s.lines));
        ShardManifest {
            flavor,
            total_lines,
            generation: 0,
            shards,
        }
    }

    /// Stamp a dataset generation onto the manifest (builder style).
    /// A nonzero generation bumps the serialized format to v2.
    pub fn with_generation(mut self, generation: u64) -> ShardManifest {
        self.generation = generation;
        self
    }

    pub fn flavor(&self) -> DictFlavor {
        self.flavor
    }

    /// The dataset generation this manifest declares (0 = none declared).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total ligand lines across all shards.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    pub fn shards(&self) -> &[ShardMeta] {
        &self.shards
    }

    /// Serialize in the readable `.zsm` text format: v1 when no
    /// generation is set (byte-identical to the historical format), v2
    /// with a `generation` row otherwise.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        if self.generation == 0 {
            writeln!(w, "{MANIFEST_MAGIC}")?;
        } else {
            writeln!(w, "{MANIFEST_MAGIC_V2}")?;
        }
        writeln!(w, "flavor {}", self.flavor.name())?;
        writeln!(w, "lines {}", self.total_lines)?;
        if self.generation != 0 {
            writeln!(w, "generation {}", self.generation)?;
        }
        for s in &self.shards {
            writeln!(
                w,
                "shard {} {} {} {:08x}",
                s.file, s.lines, s.file_bytes, s.crc32
            )?;
        }
        Ok(())
    }

    /// Parse a `.zsm` manifest, either version. Strict per version: a
    /// `generation` row in a v1 manifest is a format error (v1 readers
    /// never knew the field, so a v1 file carrying it is corrupt or
    /// mislabelled), and an unknown version is refused outright. A
    /// repeated `flavor`, `lines` or `generation` row is a format error
    /// too: no row silently overrides another.
    pub fn read_from(bytes: &[u8]) -> Result<ShardManifest, ZsmilesError> {
        let text = std::str::from_utf8(bytes).map_err(|_| bad("manifest is not UTF-8 text"))?;
        let mut lines = text.lines();
        let version = match lines.next().map(str::trim) {
            Some(magic) if magic == MANIFEST_MAGIC => 1,
            Some(magic) if magic == MANIFEST_MAGIC_V2 => 2,
            Some(magic) if magic.starts_with(MANIFEST_MAGIC_PREFIX) => {
                return Err(bad(format!(
                    "unsupported manifest version '{magic}' (this build reads v1 and v2)"
                )))
            }
            _ => return Err(bad("not a .zsm shard manifest")),
        };
        let mut flavor = None;
        let mut declared_lines = None;
        let mut generation = None;
        let mut shards = Vec::new();
        for (no, raw) in lines.enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split_whitespace();
            match f.next() {
                Some("flavor") => {
                    if flavor.is_some() {
                        return Err(bad(format!("line {}: duplicate 'flavor'", no + 2)));
                    }
                    flavor = Some(match f.next() {
                        Some("base") => DictFlavor::Base,
                        Some("wide") => DictFlavor::Wide,
                        other => {
                            return Err(bad(format!("line {}: unknown flavor {other:?}", no + 2)))
                        }
                    });
                }
                Some("lines") => {
                    if declared_lines.is_some() {
                        return Err(bad(format!("line {}: duplicate 'lines'", no + 2)));
                    }
                    declared_lines = Some(
                        f.next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad(format!("line {}: bad line count", no + 2)))?,
                    );
                }
                Some("generation") => {
                    if version < 2 {
                        return Err(bad(format!(
                            "line {}: 'generation' is a v2 field in a v1 manifest",
                            no + 2
                        )));
                    }
                    if generation.is_some() {
                        return Err(bad(format!("line {}: duplicate 'generation'", no + 2)));
                    }
                    generation = Some(
                        f.next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad(format!("line {}: bad generation", no + 2)))?,
                    );
                }
                Some("shard") => {
                    let file = f
                        .next()
                        .ok_or_else(|| bad(format!("line {}: shard needs a file", no + 2)))?;
                    if file.contains(['/', '\\']) || file == ".." {
                        return Err(bad(format!(
                            "line {}: shard file must be a plain name, got '{file}'",
                            no + 2
                        )));
                    }
                    let mut num = |what: &str| {
                        f.next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad(format!("line {}: bad {what}", no + 2)))
                    };
                    let lines = num("shard line count")?;
                    let file_bytes = num("shard byte size")?;
                    let crc32 = f
                        .next()
                        .and_then(|v| u32::from_str_radix(v, 16).ok())
                        .ok_or_else(|| bad(format!("line {}: bad shard crc", no + 2)))?;
                    shards.push(ShardMeta {
                        file: file.to_string(),
                        lines,
                        file_bytes,
                        crc32,
                    });
                }
                Some(other) => {
                    return Err(bad(format!("line {}: unknown field '{other}'", no + 2)))
                }
                None => unreachable!("blank lines are skipped"),
            }
        }
        let flavor = flavor.ok_or_else(|| bad("manifest missing 'flavor'"))?;
        if shards.is_empty() {
            return Err(bad("manifest lists no shards"));
        }
        // The rows are untrusted: their sum must fit before `new` takes it.
        if shards
            .iter()
            .try_fold(0u64, |sum, s| sum.checked_add(s.lines))
            .is_none()
        {
            return Err(bad("shard line counts sum past 2^64"));
        }
        let manifest = ShardManifest::new(flavor, shards).with_generation(generation.unwrap_or(0));
        if let Some(declared) = declared_lines {
            if declared != manifest.total_lines {
                return Err(bad(format!(
                    "manifest says {} lines but shard table sums to {}",
                    declared, manifest.total_lines
                )));
            }
        }
        Ok(manifest)
    }

    /// Write the manifest crash-safely: bytes stream into a dotted temp
    /// name beside `path` and only an fsync-then-rename publishes them.
    /// The manifest is what makes a deck *parse* as a deck, so a pack
    /// killed before this rename leaves no new deck at all — and a pack
    /// killed during it leaves either the old manifest or the complete
    /// new one, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), ZsmilesError> {
        let mut text = Vec::new();
        self.write_to(&mut text)?;
        let mut sink = AtomicFileSink::create(path)?;
        if let Err(e) = sink.append(&text) {
            sink.discard();
            return Err(e);
        }
        sink.commit()
    }

    pub fn load(path: &Path) -> Result<ShardManifest, ZsmilesError> {
        let bytes = std::fs::read(path)?;
        ShardManifest::read_from(&bytes)
    }
}

/// Whether `path` starts with the `.zsm` manifest magic (any version) —
/// the sniff [`ShardedReader::open`] uses to tell a manifest from a bare
/// `.zsa`.
pub fn is_manifest(path: &Path) -> Result<bool, ZsmilesError> {
    let mut f = std::fs::File::open(path)?;
    let mut head = [0u8; MANIFEST_MAGIC_PREFIX.len()];
    let mut got = 0;
    while got < head.len() {
        let n = f.read(&mut head[got..])?;
        if n == 0 {
            return Ok(false);
        }
        got += n;
    }
    Ok(head == *MANIFEST_MAGIC_PREFIX.as_bytes())
}

// ---------------------------------------------------------------------------
// Sharded writing
// ---------------------------------------------------------------------------

/// When to cut a new shard. At least one budget must be set; a cut
/// happens before the first line that would exceed it, so `by_lines(n)`
/// shards carry exactly `n` lines each (except the last) and
/// `by_bytes(n)` shards stay at or under `n` raw input bytes — with one
/// unavoidable exception: a single line larger than the byte budget
/// still forms its own (over-budget) shard, because the line is the
/// codec unit and cannot be split.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPolicy {
    /// Maximum ligand lines per shard.
    pub max_lines: Option<u64>,
    /// Maximum raw input bytes per shard (line bytes + newline; the shard
    /// file is smaller after compression).
    pub max_bytes: Option<u64>,
}

impl ShardPolicy {
    pub fn by_lines(max_lines: u64) -> ShardPolicy {
        ShardPolicy {
            max_lines: Some(max_lines),
            max_bytes: None,
        }
    }

    pub fn by_bytes(max_bytes: u64) -> ShardPolicy {
        ShardPolicy {
            max_lines: None,
            max_bytes: Some(max_bytes),
        }
    }

    fn validate(&self) -> Result<(), ZsmilesError> {
        match (self.max_lines, self.max_bytes) {
            (None, None) | (Some(0), None) | (None, Some(0)) | (Some(0), Some(0)) => {
                Err(bad("shard policy needs a positive line or byte budget"))
            }
            _ => Ok(()),
        }
    }

    /// Would adding one more line of `next_line_bytes` raw bytes (newline
    /// included) to a shard already holding `lines` lines / `raw_bytes`
    /// input bytes overshoot a budget? Predictive, so byte budgets are a
    /// hard cap, not a low-water mark.
    fn would_exceed(&self, lines: u64, raw_bytes: u64, next_line_bytes: u64) -> bool {
        self.max_lines.is_some_and(|n| lines + 1 > n)
            || self
                .max_bytes
                .is_some_and(|n| raw_bytes + next_line_bytes > n)
    }
}

/// What a finished sharded pack reports.
#[derive(Debug, Clone)]
pub struct ShardedPackInfo {
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// The manifest's shard table, in order.
    pub shards: Vec<ShardMeta>,
    /// Total ligand lines across shards.
    pub lines: u64,
    /// Compression accounting across every shard.
    pub stats: CompressStats,
    /// High-water mark of buffered bytes: payload staged by any shard's
    /// writer, or (cross-shard parallel mode) raw shard input held for
    /// the jobs in flight.
    pub peak_buffered_bytes: usize,
}

/// Position of the first `b'\n'` in `hay` — SWAR, eight bytes per probe
/// (the classic zero-byte trick on `word ^ NL`), so the shard writer's
/// line splitting runs at memory speed instead of byte-at-a-time.
#[inline]
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NL: u64 = 0x0A0A_0A0A_0A0A_0A0A;
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let word = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte probe"));
        let x = word ^ NL;
        let found = x.wrapping_sub(LO) & !x & HI;
        if found != 0 {
            return Some(i + (found.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
}

/// A complete raw shard cut by the policy, waiting for a worker to
/// compress it (cross-shard parallel mode only).
#[derive(Debug)]
struct PendingShard {
    name: String,
    raw: Vec<u8>,
    lines: u64,
}

/// Streams a deck into a manifest plus N `.zsa` shard files, cutting by a
/// [`ShardPolicy`]. Same input surface as
/// [`crate::writer::ArchiveWriter`]: arbitrary byte slices, lines
/// reassembled across calls.
///
/// # Cross-shard parallelism
///
/// With [`WriterOptions::threads`] == 1 the writer streams each shard
/// through one `ArchiveWriter` at a time in bounded memory. With
/// `threads` = N > 1 it instead stages up to N complete raw shards and
/// compresses them **concurrently** as jobs on the persistent
/// [`WorkerPool`] — each job drives its own independent `ArchiveWriter`
/// (single-threaded inside, since pool jobs must not re-enter the pool)
/// over its own shard file. Shard cut points are decided by the policy on
/// the raw lines, identically in both modes, and manifest rows are
/// stitched in shard order — so the files and manifest are byte-identical
/// to a serial pack.
///
/// Staged raw bytes respect the same 4 × [`WriterOptions::batch_bytes`]
/// budget as the serial writer: once the staged shards plus the shard
/// being cut would exceed it, the staged batch is flushed early — so
/// parallelism degrades gracefully to pipelined packing rather than
/// growing memory with the thread count. (A single shard whose raw bytes
/// exceed the whole budget is still staged whole; the floor of this mode
/// is one complete shard in memory.)
#[derive(Debug)]
pub struct ShardedWriter {
    manifest_path: PathBuf,
    dir: PathBuf,
    stem: String,
    dict: AnyDictionary,
    policy: ShardPolicy,
    opts: WriterOptions,
    /// Cross-shard jobs in flight at once; 1 = serial streaming mode.
    workers: usize,
    /// Serial mode: the shard being streamed (into a temp name; the
    /// shard file appears only when the shard seals cleanly).
    current: Option<ArchiveWriter<AtomicFileSink>>,
    cur_name: String,
    /// Parallel mode: raw bytes of the shard being cut.
    cur_raw: Vec<u8>,
    /// Parallel mode: complete shards staged for the next flush.
    pending: Vec<PendingShard>,
    /// Parallel mode: total raw bytes across `pending`.
    staged_bytes: usize,
    /// Parallel mode: retired raw buffers, reused so steady-state packing
    /// allocates no new shard-sized buffers.
    spare_raw: Vec<Vec<u8>>,
    /// Next shard file number (shards are named in cut order).
    shard_no: usize,
    cur_lines: u64,
    cur_raw_bytes: u64,
    shards: Vec<ShardMeta>,
    /// Shard files published (renamed into place) but whose fsync is
    /// deferred to [`Self::finish`], keeping sync latency off the packing
    /// critical path. All are synced — plus one parent-directory fsync —
    /// before the manifest commits, so the durable ordering (shards
    /// before manifest) is unchanged.
    deferred: Vec<DeferredSync>,
    /// Partial final line carried between `write` calls.
    carry: Vec<u8>,
    stats: CompressStats,
    peak_buffered: usize,
    /// Dataset generation stamped onto the manifest (0 = none; see
    /// [`ShardManifest::with_generation`]).
    generation: u64,
}

impl ShardedWriter {
    /// Start a sharded pack. `manifest_path` names the `.zsm` file;
    /// shards land beside it as `<stem>.00000.zsa`, `<stem>.00001.zsa`, …
    pub fn create(
        manifest_path: &Path,
        dict: AnyDictionary,
        policy: ShardPolicy,
        opts: WriterOptions,
    ) -> Result<ShardedWriter, ZsmilesError> {
        policy.validate()?;
        let dir = manifest_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let stem = manifest_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "deck".to_string());
        let mut w = ShardedWriter {
            manifest_path: manifest_path.to_path_buf(),
            dir,
            stem,
            dict,
            policy,
            opts,
            workers: opts.threads.max(1),
            current: None,
            cur_name: String::new(),
            cur_raw: Vec::new(),
            pending: Vec::new(),
            staged_bytes: 0,
            spare_raw: Vec::new(),
            shard_no: 0,
            cur_lines: 0,
            cur_raw_bytes: 0,
            shards: Vec::new(),
            deferred: Vec::new(),
            carry: Vec::new(),
            stats: CompressStats::default(),
            peak_buffered: 0,
            generation: 0,
        };
        if w.workers == 1 {
            w.open_shard()?;
        }
        Ok(w)
    }

    /// Stamp a dataset generation onto the manifest this pack will write.
    /// Zero (the default) keeps the historical v1 format; nonzero bumps
    /// the manifest to v2 with a `generation` row.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Shards completed so far (shards being written or staged for a
    /// parallel flush are not counted).
    pub fn shards_completed(&self) -> usize {
        self.shards.len()
    }

    fn next_shard_name(&mut self) -> String {
        let name = format!("{}.{:05}.zsa", self.stem, self.shard_no);
        self.shard_no += 1;
        name
    }

    fn open_shard(&mut self) -> Result<(), ZsmilesError> {
        self.cur_name = self.next_shard_name();
        let sink = AtomicFileSink::create(&self.dir.join(&self.cur_name))?;
        self.current = Some(ArchiveWriter::with_options(
            sink,
            self.dict.clone(),
            self.opts,
        )?);
        self.cur_lines = 0;
        self.cur_raw_bytes = 0;
        Ok(())
    }

    /// Finish the shard in progress, atomically publish its file, and
    /// record its manifest row (serial mode).
    fn seal_shard(&mut self) -> Result<(), ZsmilesError> {
        let w = self.current.take().expect("a shard is always open");
        let (sink, info) = w.finish()?;
        self.deferred.push(sink.commit_deferred()?);
        self.stats.merge(&info.stats);
        self.peak_buffered = self.peak_buffered.max(info.peak_buffered_bytes);
        debug_assert_eq!(info.lines as u64, self.cur_lines, "fed lines all landed");
        self.shards.push(ShardMeta {
            file: std::mem::take(&mut self.cur_name),
            lines: info.lines as u64,
            file_bytes: info.container_bytes,
            crc32: info.crc32,
        });
        Ok(())
    }

    /// The writer's raw-staging budget: the same 4 × batch-bytes bound
    /// the serial streaming path promises.
    fn stage_budget(&self) -> usize {
        self.opts.batch_bytes.saturating_mul(4).max(1)
    }

    /// Move the raw shard being cut onto the staging queue, flushing a
    /// full batch of jobs to the pool (parallel mode).
    fn stage_shard(&mut self) -> Result<(), ZsmilesError> {
        let name = self.next_shard_name();
        let mut fresh = self.spare_raw.pop().unwrap_or_default();
        fresh.clear();
        let raw = std::mem::replace(&mut self.cur_raw, fresh);
        self.staged_bytes += raw.len();
        self.peak_buffered = self.peak_buffered.max(self.staged_bytes);
        self.pending.push(PendingShard {
            name,
            raw,
            lines: self.cur_lines,
        });
        self.cur_lines = 0;
        self.cur_raw_bytes = 0;
        if self.pending.len() >= self.workers || self.staged_bytes >= self.stage_budget() {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Compress every staged shard concurrently on the global
    /// [`WorkerPool`], then stitch manifest rows in shard order.
    fn flush_pending(&mut self) -> Result<(), ZsmilesError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.pending);
        self.staged_bytes = 0;
        let mut slots: Vec<Option<Result<(PackInfo, DeferredSync), ZsmilesError>>> =
            batch.iter().map(|_| None).collect();
        let pool = WorkerPool::global();
        if pool.workers() == 1 || batch.len() == 1 {
            // A one-worker pool (or a one-shard batch) adds nothing but a
            // cross-thread round trip — pack inline on the caller.
            for (shard, slot) in batch.iter().zip(slots.iter_mut()) {
                *slot = Some(pack_one_shard(
                    &self.dir.join(&shard.name),
                    self.dict.clone(),
                    &shard.raw,
                    self.opts.batch_bytes,
                ));
            }
        } else {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = batch
                .iter()
                .zip(slots.iter_mut())
                .map(|(shard, slot)| {
                    let dict = self.dict.clone();
                    let path = self.dir.join(&shard.name);
                    let batch_bytes = self.opts.batch_bytes;
                    let raw: &[u8] = &shard.raw;
                    Box::new(move || {
                        *slot = Some(pack_one_shard(&path, dict, raw, batch_bytes));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scoped_run(jobs);
        }
        for (shard, slot) in batch.iter().zip(slots) {
            let (info, deferred) = slot.expect("every pool job writes its slot")?;
            self.deferred.push(deferred);
            debug_assert_eq!(info.lines as u64, shard.lines, "staged lines all landed");
            self.stats.merge(&info.stats);
            self.peak_buffered = self.peak_buffered.max(info.peak_buffered_bytes);
            self.shards.push(ShardMeta {
                file: shard.name.clone(),
                lines: info.lines as u64,
                file_bytes: info.container_bytes,
                crc32: info.crc32,
            });
        }
        self.spare_raw.extend(batch.into_iter().map(|p| p.raw));
        Ok(())
    }

    /// Route one complete line (no newline) to the current shard, cutting
    /// first if the policy budget is full. Blank lines are skipped — they
    /// produce no archive line in any layout.
    fn feed(&mut self, line: &[u8]) -> Result<(), ZsmilesError> {
        if line.is_empty() {
            return Ok(());
        }
        let cut = self.cur_lines > 0
            && self
                .policy
                .would_exceed(self.cur_lines, self.cur_raw_bytes, line.len() as u64 + 1);
        if self.workers > 1 {
            if cut {
                self.stage_shard()?;
            }
            // Keep the memory contract while a new shard accumulates: if
            // staged raw plus the shard being cut would leave the budget,
            // compress the staged batch now instead of waiting for a full
            // batch of `workers` shards.
            if !self.pending.is_empty()
                && self.staged_bytes + self.cur_raw.len() + line.len() + 1 > self.stage_budget()
            {
                self.flush_pending()?;
            }
            self.cur_raw.extend_from_slice(line);
            self.cur_raw.push(b'\n');
        } else {
            if cut {
                self.seal_shard()?;
                self.open_shard()?;
            }
            self.current
                .as_mut()
                .expect("a shard is always open")
                .write_line(line)?;
        }
        self.cur_lines += 1;
        self.cur_raw_bytes += line.len() as u64 + 1;
        Ok(())
    }

    /// Parallel-mode bulk ingestion. `chunk` is whole lines — every line
    /// newline-terminated. Runs the same per-line policy accounting and
    /// cut/blank decisions as [`Self::feed`] (so the output is
    /// byte-identical), but copies maximal spans of kept lines into the
    /// raw shard with one `memcpy` each instead of two small appends per
    /// line — the difference between the staged path losing to the serial
    /// streaming path and beating it.
    fn feed_bulk(&mut self, chunk: &[u8]) -> Result<(), ZsmilesError> {
        let mut span_start = 0usize;
        let mut pos = 0usize;
        while pos < chunk.len() {
            let line_len =
                find_newline(&chunk[pos..]).expect("feed_bulk takes newline-terminated lines");
            if line_len == 0 {
                // Blank line: keep the span before it, drop the newline.
                self.cur_raw.extend_from_slice(&chunk[span_start..pos]);
                span_start = pos + 1;
            } else {
                if self.cur_lines > 0
                    && self.policy.would_exceed(
                        self.cur_lines,
                        self.cur_raw_bytes,
                        line_len as u64 + 1,
                    )
                {
                    self.cur_raw.extend_from_slice(&chunk[span_start..pos]);
                    span_start = pos;
                    if !self.pending.is_empty()
                        && self.staged_bytes + self.cur_raw.len() > self.stage_budget()
                    {
                        self.flush_pending()?;
                    }
                    self.stage_shard()?;
                }
                self.cur_lines += 1;
                self.cur_raw_bytes += line_len as u64 + 1;
            }
            pos += line_len + 1;
        }
        self.cur_raw.extend_from_slice(&chunk[span_start..]);
        // Memory contract, once per chunk: staged raw plus the shard
        // being cut must not sit past the budget between `write` calls.
        if !self.pending.is_empty() && self.staged_bytes + self.cur_raw.len() > self.stage_budget()
        {
            self.flush_pending()?;
        }
        Ok(())
    }

    /// Accept raw deck bytes (newline-separated SMILES, lines may
    /// straddle calls).
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), ZsmilesError> {
        let mut rest = bytes;
        if !self.carry.is_empty() {
            match find_newline(rest) {
                Some(p) => {
                    self.carry.extend_from_slice(&rest[..p]);
                    let line = std::mem::take(&mut self.carry);
                    self.feed(&line)?;
                    rest = &rest[p + 1..];
                }
                None => {
                    self.carry.extend_from_slice(rest);
                    return Ok(());
                }
            }
        }
        if self.workers > 1 {
            let end = rest.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            self.feed_bulk(&rest[..end])?;
            self.carry.extend_from_slice(&rest[end..]);
            return Ok(());
        }
        while let Some(p) = find_newline(rest) {
            self.feed(&rest[..p])?;
            rest = &rest[p + 1..];
        }
        self.carry.extend_from_slice(rest);
        Ok(())
    }

    /// Accept one line (no embedded newline).
    pub fn write_line(&mut self, line: &[u8]) -> Result<(), ZsmilesError> {
        debug_assert!(
            self.carry.is_empty(),
            "mixing write and write_line mid-line"
        );
        self.feed(line)
    }

    /// Seal the last shard, write the manifest, and report the pack.
    pub fn finish(mut self) -> Result<ShardedPackInfo, ZsmilesError> {
        if !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.feed(&line)?;
        }
        // Always seal — an empty deck still yields one (empty) shard, so
        // the manifest has a dictionary to point at.
        if self.workers > 1 {
            if self.cur_lines > 0 || self.shard_no == 0 {
                self.stage_shard()?;
            }
            self.flush_pending()?;
        } else {
            self.seal_shard()?;
        }
        // Deferred-durability pass: every published shard is fsynced here,
        // then the directory once, *before* the manifest commits — so the
        // manifest (the atomic commit point) never points at a shard that
        // could vanish on power loss. One sync sweep at the end instead of
        // one per shard keeps fsync latency off the packing loop.
        for deferred in std::mem::take(&mut self.deferred) {
            deferred.sync()?;
        }
        sync_parent_dir(&self.manifest_path)?;
        let manifest =
            ShardManifest::new(self.dict.flavor(), self.shards).with_generation(self.generation);
        manifest.save(&self.manifest_path)?;
        Ok(ShardedPackInfo {
            manifest_path: self.manifest_path,
            lines: manifest.total_lines(),
            shards: manifest.shards().to_vec(),
            stats: self.stats,
            peak_buffered_bytes: self.peak_buffered,
        })
    }
}

/// Compress one staged raw shard into its own `.zsa` file. Runs as a
/// [`WorkerPool`] job, so the inner writer is single-threaded — pool jobs
/// must not call back into the pool (see the pool's deadlock contract);
/// the parallelism here is *across* shards. `ArchiveWriter` output does
/// not depend on its thread count, so the file is byte-identical to the
/// serial path's.
fn pack_one_shard(
    path: &Path,
    dict: AnyDictionary,
    raw: &[u8],
    batch_bytes: usize,
) -> Result<(PackInfo, DeferredSync), ZsmilesError> {
    let sink = AtomicFileSink::create(path)?;
    let mut w = ArchiveWriter::with_options(
        sink,
        dict,
        WriterOptions {
            threads: 1,
            batch_bytes,
        },
    )?;
    w.write(raw)?;
    let (sink, info) = w.finish()?;
    let deferred = sink.commit_deferred()?;
    Ok((info, deferred))
}

// ---------------------------------------------------------------------------
// Sharded reading
// ---------------------------------------------------------------------------

/// A shard a degraded-mode open refused to serve, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// Position in the manifest's shard table.
    pub index: usize,
    /// The shard's manifest file name.
    pub file: String,
    /// The integrity failure that quarantined it (a rendered
    /// [`ZsmilesError`]).
    pub reason: String,
}

/// A deck opened for random access, either layout: the manifest plus one
/// out-of-core [`ArchiveReader`] per shard (metadata only — no payload is
/// resident). Global line numbers route across shards by binary search on
/// the cumulative line table. A bare `.zsa` opens as a one-shard deck of
/// generation 0 whose one manifest row comes from the container itself.
///
/// A reader from [`ShardedReader::open`] is fully healthy: every shard
/// passed its cross-checks or the open failed. A reader from
/// [`ShardedReader::open_degraded`] may instead carry quarantined shards
/// — their slots hold no reader, their lines answer with
/// [`ZsmilesError::ShardUnavailable`], and everything else keeps serving.
#[derive(Debug)]
pub struct ShardedReader {
    manifest: ShardManifest,
    /// One slot per manifest row; `None` = quarantined (degraded opens
    /// only — a healthy open has every slot filled).
    readers: Vec<Option<ArchiveReader<AutoSource>>>,
    quarantined: Vec<QuarantinedShard>,
    /// `starts[k]` = global line number of shard `k`'s first line.
    starts: Vec<u64>,
    total: usize,
    /// Index of the first healthy shard — where `dictionary()` reads
    /// from (shard 0 itself may be quarantined).
    dict_shard: usize,
    /// Opened from a bare `.zsa` rather than a `.zsm` manifest.
    single_file: bool,
}

/// The per-shard integrity cross-checks both open modes run: flavor,
/// line count, file size and stored CRC against the manifest row — all
/// from metadata; no payload byte is read.
pub(crate) fn check_shard_meta(
    reader: &ArchiveReader<AutoSource>,
    meta: &ShardMeta,
    flavor: DictFlavor,
) -> Result<(), ZsmilesError> {
    if reader.flavor() != flavor {
        return Err(bad(format!(
            "shard {}: flavor {} does not match manifest {}",
            meta.file,
            reader.flavor().name(),
            flavor.name()
        )));
    }
    if reader.len() as u64 != meta.lines {
        return Err(bad(format!(
            "shard {}: stores {} lines, manifest says {}",
            meta.file,
            reader.len(),
            meta.lines
        )));
    }
    if reader.source().len() != meta.file_bytes {
        return Err(bad(format!(
            "shard {}: {} bytes on disk, manifest says {}",
            meta.file,
            reader.source().len(),
            meta.file_bytes
        )));
    }
    if reader.container_crc() != meta.crc32 {
        return Err(bad(format!(
            "shard {}: container crc {:08x}, manifest says {:08x}",
            meta.file,
            reader.container_crc(),
            meta.crc32
        )));
    }
    Ok(())
}

impl ShardedReader {
    /// Open a deck: a `.zsm` manifest and every shard it lists, or a bare
    /// `.zsa` as a one-shard deck (sniffed by [`is_manifest`]). Each
    /// shard's flavor, line count, file size, stored CRC and embedded
    /// dictionary are cross-checked against the manifest — all from
    /// metadata; no payload byte is read. Any failing shard fails the
    /// open. Archive files are served through [`AutoSource`]: a
    /// zero-syscall mmap where the platform has one, shared-block-cache
    /// positioned I/O otherwise.
    pub fn open(path: &Path) -> Result<ShardedReader, ZsmilesError> {
        ShardedReader::open_with(path, &DeckOptions::default())
    }

    /// [`ShardedReader::open`] with explicit [`DeckOptions`] (e.g. a
    /// private [`BlockCache`] for deterministic retirement).
    pub fn open_with(path: &Path, options: &DeckOptions) -> Result<ShardedReader, ZsmilesError> {
        ShardedReader::open_inner(path, options, false)
    }

    /// Open a deck *around* its damage: shards that fail to open or fail
    /// a cross-check are quarantined instead of failing the whole open,
    /// and their lines answer [`ZsmilesError::ShardUnavailable`]. The
    /// global line numbering is unchanged — line `i` means the same
    /// ligand it always did, served or not. Fails only when no shard at
    /// all is servable (there is then no dictionary to decode with). A
    /// bare `.zsa` is the whole deck, so it fails as [`ShardedReader::open`]
    /// does: there is nothing to quarantine it down to.
    pub fn open_degraded(path: &Path) -> Result<ShardedReader, ZsmilesError> {
        ShardedReader::open_degraded_with(path, &DeckOptions::default())
    }

    /// [`ShardedReader::open_degraded`] with explicit [`DeckOptions`].
    pub fn open_degraded_with(
        path: &Path,
        options: &DeckOptions,
    ) -> Result<ShardedReader, ZsmilesError> {
        ShardedReader::open_inner(path, options, true)
    }

    fn open_inner(
        path: &Path,
        options: &DeckOptions,
        degraded: bool,
    ) -> Result<ShardedReader, ZsmilesError> {
        let single_file = !is_manifest(path)?;
        // A bare `.zsa` opens once, here, with its own error; its one
        // manifest row is its own metadata, so the loop below adopts it.
        let (manifest, mut bare) = if single_file {
            let reader = ArchiveReader::from_source(options.open_source(path)?)?;
            let file = path.file_name().unwrap_or_default().to_string_lossy();
            let row = ShardMeta::of(file.into_owned(), &reader);
            (ShardManifest::new(reader.flavor(), vec![row]), Some(reader))
        } else {
            (ShardManifest::load(path)?, None)
        };
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let mut readers: Vec<Option<ArchiveReader<AutoSource>>> =
            Vec::with_capacity(manifest.shards().len());
        let mut quarantined = Vec::new();
        let mut starts = Vec::with_capacity(manifest.shards().len());
        let mut at = 0u64;
        // Reference dictionary: the first healthy shard's, remembered
        // with its file name so mismatch errors can cite it.
        let mut first_dict: Option<(String, Vec<u8>)> = None;
        let mut dict_shard = None;
        for (index, meta) in manifest.shards().iter().enumerate() {
            let opened = match bare.take() {
                Some(reader) => Ok(reader),
                None => options
                    .open_source(&dir.join(&meta.file))
                    .and_then(ArchiveReader::from_source),
            }
            .and_then(|reader| {
                check_shard_meta(&reader, meta, manifest.flavor())?;
                let mut dict_bytes = Vec::new();
                reader.dictionary().write(&mut dict_bytes)?;
                match &first_dict {
                    None => first_dict = Some((meta.file.clone(), dict_bytes)),
                    Some((ref_file, first)) if *first != dict_bytes => {
                        return Err(bad(format!(
                            "shard {}: embedded dictionary differs from shard {ref_file}",
                            meta.file
                        )))
                    }
                    Some(_) => {}
                }
                Ok(reader)
            });
            match opened {
                Ok(reader) => {
                    dict_shard.get_or_insert(index);
                    readers.push(Some(reader));
                }
                Err(e) if degraded => {
                    quarantined.push(QuarantinedShard {
                        index,
                        file: meta.file.clone(),
                        reason: e.to_string(),
                    });
                    readers.push(None);
                }
                Err(e) => return Err(e),
            }
            starts.push(at);
            // A quarantined shard's count is unverified; the manifest
            // parser bounds the sum, and this keeps the bound local.
            at = at
                .checked_add(meta.lines)
                .ok_or_else(|| bad("shard line counts sum past 2^64"))?;
        }
        let Some(dict_shard) = dict_shard else {
            return Err(bad(format!(
                "every shard of {} is unservable ({} quarantined); nothing to serve",
                path.display(),
                quarantined.len()
            )));
        };
        let total = usize::try_from(at).map_err(|_| {
            bad(format!(
                "{at} lines do not fit this platform's address space"
            ))
        })?;
        Ok(ShardedReader {
            total,
            manifest,
            readers,
            quarantined,
            starts,
            dict_shard,
            single_file,
        })
    }

    /// Total ligand lines across all shards.
    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Which dictionary flavour the shards embed.
    pub fn flavor(&self) -> DictFlavor {
        self.manifest.flavor()
    }

    /// The embedded dictionary (identical in every healthy shard;
    /// checked at open — served from the first healthy shard, since a
    /// degraded open may have quarantined shard 0).
    pub fn dictionary(&self) -> &AnyDictionary {
        self.readers[self.dict_shard]
            .as_ref()
            .expect("dict_shard indexes a healthy shard")
            .dictionary()
    }

    /// Shards a degraded open refused to serve (empty for healthy decks
    /// and for [`ShardedReader::open`], which fails instead).
    pub fn quarantined(&self) -> &[QuarantinedShard] {
        &self.quarantined
    }

    /// Whether any shard is quarantined.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Lines that currently answer [`ZsmilesError::ShardUnavailable`]
    /// (the quarantined shards' manifest line counts).
    pub fn unavailable_lines(&self) -> u64 {
        self.quarantined
            .iter()
            .map(|q| self.manifest.shards()[q.index].lines)
            .sum()
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The dataset generation stamped on the manifest (0 for v1
    /// manifests, which predate the row, and for a bare `.zsa`).
    pub fn generation(&self) -> u64 {
        self.manifest.generation()
    }

    /// Whether the deck was opened from a bare `.zsa` (its one manifest
    /// row synthesised from the container) rather than a `.zsm` file.
    pub fn is_single_file(&self) -> bool {
        self.single_file
    }

    /// Drop every block this deck's shards hold in their block cache
    /// (when cache-backed; a no-op for mmap). Returns how many blocks
    /// were released. The serving layer calls this when a generation is
    /// retired so the flipped-away deck stops competing for cache budget.
    pub fn retire_cached_blocks(&self) -> u64 {
        self.healthy()
            .map(|r| r.source().retire_cached_blocks())
            .sum()
    }

    /// Number of shards the manifest lists (quarantined ones included —
    /// they still own their line ranges).
    pub fn shard_count(&self) -> usize {
        self.readers.len()
    }

    /// The healthy per-shard readers, in manifest order (quarantined
    /// slots skipped).
    fn healthy(&self) -> impl Iterator<Item = &ArchiveReader<AutoSource>> {
        self.readers.iter().flatten()
    }

    /// The reader for manifest shard `index`, `None` when quarantined.
    pub fn shard_reader(&self, index: usize) -> Option<&ArchiveReader<AutoSource>> {
        self.readers.get(index).and_then(Option::as_ref)
    }

    /// The healthy shard serving line `i`, or the typed routing error.
    fn shard_for_line(
        &self,
        s: usize,
        line: usize,
    ) -> Result<&ArchiveReader<AutoSource>, ZsmilesError> {
        self.readers[s]
            .as_ref()
            .ok_or_else(|| ZsmilesError::ShardUnavailable {
                shard: self.manifest.shards()[s].file.clone(),
                line,
            })
    }

    /// Bytes of address space mapped across all shards (0 when the
    /// platform fell back to cached file I/O).
    pub fn bytes_mapped(&self) -> u64 {
        self.healthy().map(|r| r.source().bytes_mapped()).sum()
    }

    /// Aggregate `(hits, misses)` of the shards' sources against the
    /// shared block cache; `None` when every shard is mmap-backed.
    pub fn cache_counters(&self) -> Option<(u64, u64)> {
        self.healthy()
            .filter_map(|r| r.source().cache_counters())
            .reduce(|(h, m), (h2, m2)| (h + h2, m + m2))
    }

    /// Compressed payload bytes across all healthy shards (not resident).
    pub fn payload_bytes(&self) -> u64 {
        self.healthy().map(|r| r.payload_bytes()).sum()
    }

    /// Metadata bytes transferred at open, across all healthy shards.
    pub fn metadata_bytes(&self) -> u64 {
        self.healthy().map(|r| r.metadata_bytes()).sum()
    }

    fn check_line(&self, i: usize) -> Result<(), ZsmilesError> {
        if i >= self.total {
            return Err(ZsmilesError::LineOutOfRange {
                line: i,
                len: self.total,
            });
        }
        Ok(())
    }

    /// Which shard holds global line `i`, and the line's shard-local
    /// index. O(log #shards); empty shards are skipped by construction
    /// (their cumulative start equals their successor's).
    fn locate(&self, i: usize) -> (usize, usize) {
        let s = self.starts.partition_point(|&st| st <= i as u64) - 1;
        (s, i - self.starts[s] as usize)
    }

    /// The compressed bytes of global ligand `i` — one positioned read in
    /// one shard.
    pub fn compressed_line(&self, i: usize) -> Result<Vec<u8>, ZsmilesError> {
        self.check_line(i)?;
        let (s, local) = self.locate(i);
        self.shard_for_line(s, i)?.compressed_line(local)
    }

    /// Decompress global ligand `i` — the paper's random-access read,
    /// routed to the owning shard.
    pub fn get(&self, i: usize) -> Result<Vec<u8>, ZsmilesError> {
        self.check_line(i)?;
        let (s, local) = self.locate(i);
        self.shard_for_line(s, i)?.get(local)
    }

    /// Decompress a contiguous run of global ligands: one batched
    /// [`ArchiveReader::get_range`] per shard the run crosses.
    pub fn get_range(&self, lines: Range<usize>) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        if lines.end > self.total {
            return Err(ZsmilesError::LineOutOfRange {
                line: lines.end.saturating_sub(1),
                len: self.total,
            });
        }
        // Grown shard by shard, the first shard's lines taken as they are:
        // on a degraded deck `lines` may span a quarantined shard's
        // unverified line count, too many to reserve up front.
        let mut out = Vec::new();
        let mut i = lines.start;
        while i < lines.end {
            let (s, local) = self.locate(i);
            let reader = self.shard_for_line(s, i)?;
            let take = (reader.len() - local).min(lines.end - i);
            let part = reader.get_range(local..local + take)?;
            if out.is_empty() {
                out = part;
            } else {
                out.extend(part);
            }
            i += take;
        }
        Ok(out)
    }

    /// Decompress an arbitrary set of global ligands in the order given —
    /// one routed [`ShardedReader::get`] per line, so `k` lines cost
    /// `k + 1` allocations.
    pub fn get_many(&self, indices: &[usize]) -> Result<Vec<Vec<u8>>, ZsmilesError> {
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            out.push(self.get(i)?);
        }
        Ok(out)
    }

    /// Iterate every ligand in global order, shard by shard, reading each
    /// shard's payload in batches of
    /// [`crate::reader::DEFAULT_BATCH_BYTES`].
    pub fn lines(&self) -> ShardedLines<'_> {
        self.lines_batched(DEFAULT_BATCH_BYTES)
    }

    /// [`ShardedReader::lines`] with an explicit per-batch byte budget.
    pub fn lines_batched(&self, batch_bytes: usize) -> ShardedLines<'_> {
        ShardedLines {
            reader: self,
            shard: 0,
            inner: None,
            batch_bytes,
        }
    }

    /// Stream-decompress every shard in order into `w` — constant memory
    /// in the archive size, same contract as
    /// [`ArchiveReader::unpack_to`].
    pub fn unpack_to<W: Write>(
        &self,
        mut w: W,
        threads: usize,
        chunk_bytes: usize,
    ) -> Result<crate::decompress::DecompressStats, ZsmilesError> {
        let mut stats = crate::decompress::DecompressStats::default();
        for s in 0..self.readers.len() {
            let r = self.shard_for_line(s, self.starts[s] as usize)?;
            let s = r.unpack_to(&mut w, threads, chunk_bytes)?;
            stats.lines += s.lines;
            stats.in_bytes += s.in_bytes;
            stats.out_bytes += s.out_bytes;
        }
        w.flush()?;
        Ok(stats)
    }

    /// Verify every shard's CRC32 end to end, streaming each in bounded
    /// memory. On a degraded deck the first quarantined shard fails the
    /// verify (its bytes cannot be vouched for).
    pub fn verify(&self) -> Result<(), ZsmilesError> {
        for s in 0..self.readers.len() {
            self.shard_for_line(s, self.starts[s] as usize)?.verify()?;
        }
        Ok(())
    }
}

/// Batched in-order iterator over every decoded line of a sharded
/// archive: each shard's [`LineIter`] in manifest order.
pub struct ShardedLines<'r> {
    reader: &'r ShardedReader,
    shard: usize,
    inner: Option<LineIter<'r, AutoSource>>,
    batch_bytes: usize,
}

impl Iterator for ShardedLines<'_> {
    type Item = Result<Vec<u8>, ZsmilesError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(it) = self.inner.as_mut() {
                if let Some(item) = it.next() {
                    return Some(item);
                }
                self.inner = None;
            }
            if self.shard >= self.reader.readers.len() {
                return None;
            }
            let s = self.shard;
            self.shard += 1;
            match self
                .reader
                .shard_for_line(s, self.reader.starts[s] as usize)
            {
                Ok(r) => self.inner = Some(r.lines_batched(self.batch_bytes)),
                // A quarantined shard ends the stream with its typed
                // error — the caller cannot silently skip lines.
                Err(e) => {
                    self.shard = self.reader.readers.len();
                    return Some(Err(e));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layout enum
// ---------------------------------------------------------------------------

/// A [`ShardedReader`] tagged with the layout it was opened from. It
/// exists only for the benchmark harness under `perfbench/`, which
/// matches on these variants; everything else opens [`ShardedReader`]
/// directly, and every read goes through [`Deref`](std::ops::Deref).
#[derive(Debug)]
pub enum DeckReader {
    /// A bare `.zsa`, open as a one-shard deck.
    Single(Box<ShardedReader>),
    /// A `.zsm` manifest and its shards.
    Sharded(Box<ShardedReader>),
}

impl DeckReader {
    /// [`ShardedReader::open`], tagged with the layout.
    pub fn open(path: &Path) -> Result<DeckReader, ZsmilesError> {
        let reader = Box::new(ShardedReader::open(path)?);
        Ok(if reader.is_single_file() {
            DeckReader::Single(reader)
        } else {
            DeckReader::Sharded(reader)
        })
    }
}

impl std::ops::Deref for DeckReader {
    type Target = ShardedReader;

    #[inline]
    fn deref(&self) -> &ShardedReader {
        match self {
            DeckReader::Single(r) | DeckReader::Sharded(r) => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Archive;
    use crate::dict::builder::DictBuilder;
    use crate::wide::WideDictBuilder;

    fn deck_lines() -> Vec<&'static [u8]> {
        let lines: [&[u8]; 5] = [
            b"COc1cc(C=O)ccc1O",
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
            b"CC(=O)Oc1ccccc1C(=O)O",
        ];
        lines.iter().copied().cycle().take(120).collect()
    }

    fn deck_bytes() -> Vec<u8> {
        deck_lines()
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect()
    }

    fn dict(wide: bool) -> AnyDictionary {
        let base = DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        };
        if wide {
            AnyDictionary::Wide(Box::new(
                WideDictBuilder {
                    base,
                    wide_size: 32,
                }
                .train(deck_lines())
                .unwrap(),
            ))
        } else {
            AnyDictionary::Base(Box::new(base.train(deck_lines()).unwrap()))
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("zsmiles_shard_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pack_sharded(dir: &Path, wide: bool, policy: ShardPolicy) -> ShardedPackInfo {
        let mut w = ShardedWriter::create(
            &dir.join("deck.zsm"),
            dict(wide),
            policy,
            WriterOptions {
                threads: 2,
                batch_bytes: 128,
            },
        )
        .unwrap();
        // Awkward slicing on purpose: lines straddle write calls.
        for chunk in deck_bytes().chunks(7) {
            w.write(chunk).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn manifest_text_round_trips() {
        let m = ShardManifest::new(
            DictFlavor::Wide,
            vec![
                ShardMeta {
                    file: "deck.00000.zsa".into(),
                    lines: 10,
                    file_bytes: 1234,
                    crc32: 0x9AB3F2E1,
                },
                ShardMeta {
                    file: "deck.00001.zsa".into(),
                    lines: 3,
                    file_bytes: 987,
                    crc32: 0x0000_0001,
                },
            ],
        );
        let mut raw = Vec::new();
        m.write_to(&mut raw).unwrap();
        let text = String::from_utf8(raw.clone()).unwrap();
        assert!(text.starts_with(MANIFEST_MAGIC), "readable text manifest");
        assert!(text.contains("lines 13"));
        let back = ShardManifest::read_from(&raw).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_lines(), 13);
    }

    #[test]
    fn manifest_rejects_garbage_and_inconsistency() {
        assert!(ShardManifest::read_from(b"not a manifest").is_err());
        assert!(ShardManifest::read_from(b"#zsmiles-shards v1\nflavor base\n").is_err());
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v1\nflavor purple\nshard a.zsa 1 2 03\n"
        )
        .is_err());
        // Declared total disagrees with the shard table.
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v1\nflavor base\nlines 5\nshard a.zsa 1 2 03\n"
        )
        .is_err());
        // Path traversal in shard names is rejected.
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v1\nflavor base\nshard ../evil.zsa 1 2 03\n"
        )
        .is_err());
        // Comments and blank lines are fine.
        let ok = ShardManifest::read_from(
            b"#zsmiles-shards v1\n# comment\n\nflavor base\nshard a.zsa 1 2 0000aaff\n",
        )
        .unwrap();
        assert_eq!(ok.shards().len(), 1);
        assert_eq!(ok.shards()[0].crc32, 0xAAFF);
    }

    #[test]
    fn manifest_generation_round_trips_as_v2() {
        let shards = vec![ShardMeta {
            file: "deck.00000.zsa".into(),
            lines: 4,
            file_bytes: 99,
            crc32: 0xDEAD,
        }];
        // Generation 0 stays byte-identical to the historical v1 format.
        let v1 = ShardManifest::new(DictFlavor::Base, shards.clone());
        let mut raw = Vec::new();
        v1.write_to(&mut raw).unwrap();
        let text = String::from_utf8(raw.clone()).unwrap();
        assert!(text.starts_with(MANIFEST_MAGIC), "v1 magic kept");
        assert!(!text.contains("generation"), "no generation row at 0");
        assert_eq!(ShardManifest::read_from(&raw).unwrap().generation(), 0);

        // A nonzero generation bumps the magic to v2 and round-trips.
        let v2 = ShardManifest::new(DictFlavor::Base, shards).with_generation(7);
        let mut raw = Vec::new();
        v2.write_to(&mut raw).unwrap();
        let text = String::from_utf8(raw.clone()).unwrap();
        assert!(text.starts_with(MANIFEST_MAGIC_V2), "v2 magic");
        assert!(text.contains("generation 7"));
        let back = ShardManifest::read_from(&raw).unwrap();
        assert_eq!(back, v2);
        assert_eq!(back.generation(), 7);
    }

    #[test]
    fn manifest_version_gate_is_strict() {
        // `generation` in a v1 manifest is an error, not silently read.
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v1\nflavor base\ngeneration 3\nshard a.zsa 1 2 03\n"
        )
        .is_err());
        // An unknown future version is refused up front.
        assert!(
            ShardManifest::read_from(b"#zsmiles-shards v9\nflavor base\nshard a.zsa 1 2 03\n")
                .is_err()
        );
        // Duplicate and malformed generation rows are refused.
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v2\nflavor base\ngeneration 1\ngeneration 2\nshard a.zsa 1 2 03\n"
        )
        .is_err());
        assert!(ShardManifest::read_from(
            b"#zsmiles-shards v2\nflavor base\ngeneration x\nshard a.zsa 1 2 03\n"
        )
        .is_err());
        // A v2 manifest without the optional row reads as generation 0.
        let ok = ShardManifest::read_from(b"#zsmiles-shards v2\nflavor base\nshard a.zsa 1 2 03\n")
            .unwrap();
        assert_eq!(ok.generation(), 0);
    }

    #[test]
    fn sharded_writer_stamps_generation_through_to_readers() {
        let dir = tmpdir("gen");
        let mut w = ShardedWriter::create(
            &dir.join("deck.zsm"),
            dict(false),
            ShardPolicy::by_lines(50),
            WriterOptions::default(),
        )
        .unwrap();
        w.set_generation(42);
        w.write(&deck_bytes()).unwrap();
        w.finish().unwrap();

        let sharded = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert_eq!(sharded.generation(), 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_pack_matches_single_file_pack_line_for_line() {
        for wide in [false, true] {
            let dir = tmpdir(if wide { "idw" } else { "idb" });
            let info = pack_sharded(&dir, wide, ShardPolicy::by_lines(50));
            assert_eq!(info.lines, 120);
            assert_eq!(info.shards.len(), 3, "120 lines at 50/shard");
            assert_eq!(info.shards[0].lines, 50);
            assert_eq!(info.shards[2].lines, 20);

            let single = Archive::pack(dict(wide), &deck_bytes(), 2);
            let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
            assert_eq!(reader.len(), single.len());
            assert_eq!(reader.flavor(), single.flavor());
            reader.verify().unwrap();
            for i in [0usize, 49, 50, 51, 99, 100, 119] {
                assert_eq!(
                    reader.get(i).unwrap(),
                    single.get(i).unwrap(),
                    "wide={wide} line {i}"
                );
                assert_eq!(
                    reader.compressed_line(i).unwrap(),
                    single.compressed_line(i).unwrap(),
                    "wide={wide} line {i}"
                );
            }
            // Ranges and hit lists spanning shard boundaries.
            assert_eq!(
                reader.get_range(45..105).unwrap(),
                single.get_range(45..105).unwrap()
            );
            let hits = [99usize, 0, 50, 119, 50];
            assert_eq!(
                reader.get_many(&hits).unwrap(),
                single.get_many(&hits).unwrap()
            );
            // Full iteration and streaming unpack.
            let streamed: Result<Vec<Vec<u8>>, _> = reader.lines_batched(64).collect();
            assert_eq!(streamed.unwrap(), deck_lines());
            let mut out = Vec::new();
            reader.unpack_to(&mut out, 2, 1000).unwrap();
            assert_eq!(out, deck_bytes());

            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn byte_budget_policy_cuts_and_boundary_on_last_line_is_clean() {
        let dir = tmpdir("bytes");
        let info = pack_sharded(&dir, false, ShardPolicy::by_bytes(700));
        assert!(info.shards.len() > 1, "700-byte budget forces cuts");
        let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert_eq!(reader.len(), 120);
        // The byte budget is a hard cap: every shard's raw input (line
        // bytes + newlines) stays at or under it — no line in the deck
        // exceeds the budget on its own, so no overshoot is excusable.
        let mut line = 0usize;
        for meta in reader.manifest().shards() {
            let raw: u64 = (line..line + meta.lines as usize)
                .map(|i| deck_lines()[i].len() as u64 + 1)
                .sum();
            assert!(
                raw <= 700,
                "shard {} holds {} raw bytes > 700",
                meta.file,
                raw
            );
            line += meta.lines as usize;
        }
        std::fs::remove_dir_all(&dir).ok();

        // A single line larger than the budget still forms its own shard.
        let dir = tmpdir("oversize");
        let mut w = ShardedWriter::create(
            &dir.join("deck.zsm"),
            dict(false),
            ShardPolicy::by_bytes(10),
            WriterOptions::default(),
        )
        .unwrap();
        w.write(b"CCO\nC1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2\nCCN(CC)CC\n")
            .unwrap();
        let info = w.finish().unwrap();
        assert_eq!(info.lines, 3);
        assert_eq!(
            info.shards.len(),
            3,
            "each line over/at budget gets its own shard"
        );
        let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert_eq!(
            reader.get(1).unwrap(),
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2".to_vec()
        );
        std::fs::remove_dir_all(&dir).ok();

        // A budget that divides the deck exactly: no trailing empty shard.
        let dir = tmpdir("exact");
        let info = pack_sharded(&dir, false, ShardPolicy::by_lines(60));
        assert_eq!(info.shards.len(), 2);
        assert_eq!(info.shards[1].lines, 60);
        let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert_eq!(reader.get(119).unwrap(), deck_lines()[119]);
        assert!(matches!(
            reader.get(120).unwrap_err(),
            ZsmilesError::LineOutOfRange {
                line: 120,
                len: 120
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_cross_shard_pack_is_byte_identical_to_serial() {
        let serial_dir = tmpdir("par_ref");
        let serial = pack_sharded(&serial_dir, false, ShardPolicy::by_lines(17));
        for threads in [3usize, 7] {
            let dir = tmpdir(&format!("par_{threads}"));
            let mut w = ShardedWriter::create(
                &dir.join("deck.zsm"),
                dict(false),
                ShardPolicy::by_lines(17),
                WriterOptions {
                    threads,
                    batch_bytes: 128,
                },
            )
            .unwrap();
            for chunk in deck_bytes().chunks(7) {
                w.write(chunk).unwrap();
            }
            let info = w.finish().unwrap();
            assert_eq!(info.lines, serial.lines);
            assert_eq!(info.shards, serial.shards, "threads={threads}");
            assert_eq!(
                std::fs::read(dir.join("deck.zsm")).unwrap(),
                std::fs::read(serial_dir.join("deck.zsm")).unwrap(),
                "threads={threads}: manifests identical"
            );
            for meta in &info.shards {
                assert_eq!(
                    std::fs::read(dir.join(&meta.file)).unwrap(),
                    std::fs::read(serial_dir.join(&meta.file)).unwrap(),
                    "threads={threads}: shard {} identical",
                    meta.file
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        // Note: `pack_sharded` uses threads=2, i.e. the parallel path; pin
        // the true serial reference too.
        let dir1 = tmpdir("par_t1");
        let mut w = ShardedWriter::create(
            &dir1.join("deck.zsm"),
            dict(false),
            ShardPolicy::by_lines(17),
            WriterOptions {
                threads: 1,
                batch_bytes: 128,
            },
        )
        .unwrap();
        for chunk in deck_bytes().chunks(7) {
            w.write(chunk).unwrap();
        }
        let info1 = w.finish().unwrap();
        assert_eq!(info1.shards, serial.shards);
        for meta in &info1.shards {
            assert_eq!(
                std::fs::read(dir1.join(&meta.file)).unwrap(),
                std::fs::read(serial_dir.join(&meta.file)).unwrap(),
                "serial streaming shard {} identical to parallel",
                meta.file
            );
        }
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&serial_dir).ok();
    }

    #[test]
    fn empty_deck_shards_to_one_empty_shard() {
        let dir = tmpdir("empty");
        let w = ShardedWriter::create(
            &dir.join("deck.zsm"),
            dict(false),
            ShardPolicy::by_lines(10),
            WriterOptions::default(),
        )
        .unwrap();
        let info = w.finish().unwrap();
        assert_eq!(info.lines, 0);
        assert_eq!(info.shards.len(), 1);
        let reader = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert!(reader.is_empty());
        assert!(reader.get(0).is_err());
        assert_eq!(reader.lines().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_needs_a_budget() {
        let dir = tmpdir("policy");
        for policy in [
            ShardPolicy::default(),
            ShardPolicy::by_lines(0),
            ShardPolicy::by_bytes(0),
        ] {
            assert!(ShardedWriter::create(
                &dir.join("deck.zsm"),
                dict(false),
                policy,
                WriterOptions::default(),
            )
            .is_err());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_cross_checks_shards_against_the_manifest() {
        let dir = tmpdir("xcheck");
        pack_sharded(&dir, false, ShardPolicy::by_lines(40));
        let manifest_path = dir.join("deck.zsm");

        // A tampered line count is refused.
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        let tampered = text.replace("lines 120", "lines 121").replacen(
            "deck.00000.zsa 40",
            "deck.00000.zsa 41",
            1,
        );
        std::fs::write(&manifest_path, &tampered).unwrap();
        assert!(matches!(
            ShardedReader::open(&manifest_path).unwrap_err(),
            ZsmilesError::ManifestFormat { .. }
        ));
        std::fs::write(&manifest_path, &text).unwrap();

        // A tampered CRC is refused (without reading any payload).
        let swapped = text
            .lines()
            .map(|l| {
                if l.starts_with("shard deck.00001") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    parts[4] = "00000000";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&manifest_path, swapped).unwrap();
        assert!(matches!(
            ShardedReader::open(&manifest_path).unwrap_err(),
            ZsmilesError::ManifestFormat { .. }
        ));
        std::fs::write(&manifest_path, &text).unwrap();

        // A missing shard file is an I/O error.
        let shard0 = dir.join("deck.00000.zsa");
        let bytes = std::fs::read(&shard0).unwrap();
        std::fs::remove_file(&shard0).unwrap();
        assert!(ShardedReader::open(&manifest_path).is_err());
        std::fs::write(&shard0, &bytes).unwrap();
        ShardedReader::open(&manifest_path).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_reader_opens_both_layouts() {
        let dir = tmpdir("dispatch");
        // Sharded.
        pack_sharded(&dir, false, ShardPolicy::by_lines(33));
        let sharded = ShardedReader::open(&dir.join("deck.zsm")).unwrap();
        assert!(!sharded.is_single_file());
        assert_eq!(sharded.shard_count(), 4);
        // Single file of the same deck: one shard, its row its own
        // metadata, generation 0.
        let single_path = dir.join("deck.zsa");
        Archive::pack(dict(false), &deck_bytes(), 1)
            .save(&single_path)
            .unwrap();
        let single = ShardedReader::open(&single_path).unwrap();
        assert!(single.is_single_file());
        assert_eq!(single.shard_count(), 1);
        assert_eq!(single.generation(), 0);
        let row = &single.manifest().shards()[0];
        assert_eq!(row.file, "deck.zsa");
        assert_eq!(row.lines, 120);
        assert_eq!(
            row.file_bytes,
            std::fs::metadata(&single_path).unwrap().len()
        );

        assert_eq!(sharded.len(), single.len());
        assert_eq!(sharded.flavor(), single.flavor());
        for i in [0usize, 33, 66, 119] {
            assert_eq!(sharded.get(i).unwrap(), single.get(i).unwrap(), "line {i}");
        }
        assert_eq!(
            sharded.get_range(30..40).unwrap(),
            single.get_range(30..40).unwrap()
        );
        assert_eq!(
            sharded.get_many(&[119, 0, 34]).unwrap(),
            single.get_many(&[119, 0, 34]).unwrap()
        );
        let mut a = Vec::new();
        sharded.unpack_to(&mut a, 2, 4096).unwrap();
        let mut b = Vec::new();
        single.unpack_to(&mut b, 2, 4096).unwrap();
        assert_eq!(a, b);
        sharded.verify().unwrap();
        single.verify().unwrap();

        // Neither layout: the container's typed error, not a panic, from
        // both opens.
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"neither layout at all").unwrap();
        for err in [
            ShardedReader::open(&junk).unwrap_err(),
            ShardedReader::open_degraded(&junk).unwrap_err(),
        ] {
            assert!(matches!(err, ZsmilesError::ArchiveFormat { .. }), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
