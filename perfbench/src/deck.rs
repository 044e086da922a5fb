//! Workload inputs: the seeded deck, the lines every read must return,
//! and the production pack of the deck into shards.

use molgen::Dataset;
use std::path::{Path, PathBuf};
use std::time::Instant;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::{
    DeckReader, Dictionary, ShardPolicy, ShardedPackInfo, ShardedReader, ShardedWriter,
    WriterOptions, ZsmilesError,
};

/// Shards a deck is cut into (line budget = lines / SHARDS, rounded up).
pub const SHARDS: usize = 8;

/// The shipped `default.dct` (the paper's shared dictionary), with the
/// ring-ID preprocessing it declares.
pub fn dictionary() -> AnyDictionary {
    AnyDictionary::Base(Box::new(Dictionary::builtin().clone()))
}

/// Lines held back to back in one buffer.
pub struct FlatLines {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl FlatLines {
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// A generated deck plus what a read of each line must return.
pub struct Deck {
    pub data: Dataset,
    /// Line `i` as every read path must return it: the raw line after
    /// the dictionary's preprocessing (ring IDs renumbered), or the raw
    /// line where preprocessing fails or is off.
    pub expected: FlatLines,
}

impl Deck {
    pub fn generate(lines: usize, seed: u64) -> Deck {
        let data = Dataset::generate_mixed(lines, seed);
        let preprocess = dictionary().preprocessed();
        let mut bytes = Vec::with_capacity(data.total_bytes());
        let mut ends = Vec::with_capacity(data.len());
        for line in data.iter() {
            match preprocess.then(|| smiles::preprocess::preprocess(line)) {
                Some(Ok(p)) => bytes.extend_from_slice(&p),
                _ => bytes.extend_from_slice(line),
            }
            ends.push(bytes.len());
        }
        Deck {
            data,
            expected: FlatLines { bytes, ends },
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Raw deck bytes, newlines included.
    pub fn raw_bytes(&self) -> &[u8] {
        self.data.as_bytes()
    }
}

/// One finished pack and what it cost.
pub struct Packed {
    pub manifest: PathBuf,
    pub info: ShardedPackInfo,
    pub secs: f64,
    /// Shards plus manifest, on disk.
    pub stored_bytes: u64,
    /// The deck line the pack starts at (see [`pack_rotated`]): line `i`
    /// of the packed deck is deck line `(first_line + i) % len`.
    pub first_line: usize,
}

impl Packed {
    /// Raw deck megabytes (10^6 bytes) packed per second.
    pub fn mb_s(&self, deck: &Deck) -> f64 {
        deck.raw_bytes().len() as f64 / 1e6 / self.secs
    }
}

/// Stream the deck through `ShardedWriter` into `dir` (created fresh)
/// with `threads` cross-shard workers and the production commit: every
/// shard fsynced, the directory fsynced, then the manifest published
/// atomically.
pub fn pack(deck: &Deck, dir: &Path, threads: usize) -> Result<Packed, ZsmilesError> {
    pack_rotated(deck, dir, threads, 0)
}

/// [`pack`], with the deck streamed from line `first_line` to its end
/// and then from its start: the same lines and bytes, with the shard
/// cuts in other places.
pub fn pack_rotated(
    deck: &Deck,
    dir: &Path,
    threads: usize,
    first_line: usize,
) -> Result<Packed, ZsmilesError> {
    let raw = deck.raw_bytes();
    // Lines are slices of the raw buffer, so a line's address gives its
    // offset.
    let cut = match first_line {
        0 => 0,
        i => deck.data.line(i).as_ptr() as usize - raw.as_ptr() as usize,
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let manifest = dir.join("deck.zsm");
    let t0 = Instant::now();
    let mut w = ShardedWriter::create(
        &manifest,
        dictionary(),
        ShardPolicy::by_lines(deck.len().div_ceil(SHARDS).max(1) as u64),
        WriterOptions {
            threads,
            ..Default::default()
        },
    )?;
    w.write(&raw[cut..])?;
    w.write(&raw[..cut])?;
    let info = w.finish()?;
    let secs = t0.elapsed().as_secs_f64();
    let mut stored_bytes = std::fs::metadata(&manifest)?.len();
    for s in &info.shards {
        stored_bytes += std::fs::metadata(dir.join(&s.file))?.len();
    }
    Ok(Packed {
        manifest,
        info,
        secs,
        stored_bytes,
        first_line,
    })
}

/// Open the packed deck the production way (`open` → mmap on Linux).
pub fn open(packed: &Packed) -> Result<DeckReader, ZsmilesError> {
    DeckReader::open(&packed.manifest)
}

/// The sharded view of a deck this benchmark packed.
pub fn sharded(reader: &DeckReader) -> &ShardedReader {
    match reader {
        DeckReader::Sharded(r) => r.as_ref(),
        DeckReader::Single(_) => panic!("the benchmark always packs a sharded deck"),
    }
}

/// Global line → (shard, line within shard), from the manifest's line
/// counts: the routing the sharded reader does internally.
pub struct Router {
    starts: Vec<usize>,
}

impl Router {
    pub fn new(reader: &ShardedReader) -> Router {
        let mut starts = Vec::new();
        let mut at = 0usize;
        for s in reader.manifest().shards() {
            starts.push(at);
            at += s.lines as usize;
        }
        Router { starts }
    }

    pub fn locate(&self, i: usize) -> (usize, usize) {
        let s = self.starts.partition_point(|&st| st <= i) - 1;
        (s, i - self.starts[s])
    }
}
