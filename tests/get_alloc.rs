//! A warmed random-access `get` makes exactly one heap allocation — the
//! line it returns — on every read path: a sharded mmap deck, and a
//! single archive over a file, a block cache and memory, and opened as a
//! one-shard deck (the CLI's `get`). `get_many(k)`
//! makes `k + 1` (the outer list plus one per line), and every returned
//! line carries at most one decode slot of spare capacity.
//!
//! A test binary of its own: the counting `#[global_allocator]` below
//! replaces the allocator for the whole process, and counts only on the
//! thread that turned counting on, so the harness's own threads cannot
//! disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

use molgen::Dataset;
use zsmiles_core::dict::MAX_PATTERN_LEN;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::source::{ArchiveSource, CachedSource, FileSource, InMemorySource};
use zsmiles_core::{
    Archive, ArchiveReader, BlockCache, DictBuilder, ShardPolicy, ShardedReader, ShardedWriter,
    WideDictBuilder, WriterOptions, ZsmilesError,
};

struct Counting;

thread_local! {
    /// Allocations made on this thread while counting, or `None` when
    /// not counting.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the only addition is a thread-local counter bump, which neither
// allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(Some(0)));
    f();
    ALLOCS.with(|n| n.take()).expect("still counting")
}

const LINES: usize = 3_000;

fn dict_for(deck: &Dataset, wide: bool) -> AnyDictionary {
    let base = DictBuilder {
        min_count: 2,
        preprocess: false,
        ..Default::default()
    };
    if wide {
        AnyDictionary::Wide(Box::new(
            WideDictBuilder {
                base,
                wide_size: 256,
            }
            .train(deck.iter())
            .unwrap(),
        ))
    } else {
        AnyDictionary::Base(Box::new(base.train(deck.iter()).unwrap()))
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zsmiles_it_get_alloc_{tag}_{}", std::process::id()))
}

/// Every line through `get` once to warm caches, then again counting:
/// one allocation per call, the deck's bytes, at most one decode slot of
/// spare capacity. Then `get_many` over a scattered hit list.
fn assert_one_allocation_per_line(
    path: &str,
    deck: &Dataset,
    get: impl Fn(usize) -> Result<Vec<u8>, ZsmilesError>,
    get_many: impl Fn(&[usize]) -> Result<Vec<Vec<u8>>, ZsmilesError>,
) {
    for i in 0..deck.len() {
        get(i).unwrap();
    }
    for i in 0..deck.len() {
        let mut line = Vec::new();
        let n = allocations(|| line = get(i).unwrap());
        assert_eq!(n, 1, "{path}: allocations for get({i})");
        assert_eq!(line, deck.line(i), "{path}: line {i}");
        assert!(
            line.capacity() <= line.len() + MAX_PATTERN_LEN,
            "{path}: line {i} has capacity {} for {} bytes",
            line.capacity(),
            line.len()
        );
    }
    let hits: Vec<usize> = (0..40).map(|k| (k * 7_919) % deck.len()).collect();
    for k in [1, 5, hits.len()] {
        let mut many = Vec::new();
        let n = allocations(|| many = get_many(&hits[..k]).unwrap());
        assert_eq!(n, k as u64 + 1, "{path}: allocations for get_many of {k}");
        for (&i, line) in hits.iter().zip(&many) {
            assert_eq!(line.as_slice(), deck.line(i), "{path}: get_many line {i}");
        }
    }
}

fn assert_reader<S: ArchiveSource>(path: &str, deck: &Dataset, reader: &ArchiveReader<S>) {
    assert_one_allocation_per_line(path, deck, |i| reader.get(i), |is| reader.get_many(is));
}

#[test]
fn warmed_single_archive_get_allocates_only_its_result() {
    let deck = Dataset::generate_mixed(LINES, 29);
    for wide in [false, true] {
        let archive = Archive::pack(dict_for(&deck, wide), deck.as_bytes(), 2);
        let mut blob = Vec::new();
        archive.write_to(&mut blob).unwrap();
        let path = tmp(if wide { "wide.zsa" } else { "base.zsa" });
        std::fs::write(&path, &blob).unwrap();

        let memory = ArchiveReader::from_source(InMemorySource::new(blob)).unwrap();
        assert_reader("memory", &deck, &memory);
        let file = ArchiveReader::open(&path).unwrap();
        assert_reader("file", &deck, &file);
        // Small blocks in a private cache: many lines straddle two blocks,
        // and no other test's traffic can evict the warmed ones.
        let cache = Arc::new(BlockCache::new(4096, 1 << 24));
        let cached = ArchiveReader::from_source(CachedSource::with_cache(
            FileSource::open(&path).unwrap(),
            cache,
        ))
        .unwrap();
        assert_reader("cached", &deck, &cached);
        // The bare file as a one-shard deck: the path `zsmiles get` takes.
        let one_shard = ShardedReader::open(&path).unwrap();
        assert_eq!(one_shard.shard_count(), 1);
        assert_one_allocation_per_line(
            "one-shard deck",
            &deck,
            |i| one_shard.get(i),
            |is| one_shard.get_many(is),
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn warmed_sharded_deck_get_allocates_only_its_result() {
    let deck = Dataset::generate_mixed(LINES, 31);
    let dir = tmp("shards");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("deck.zsm");
    let mut w = ShardedWriter::create(
        &manifest,
        dict_for(&deck, false),
        ShardPolicy::by_lines(700),
        WriterOptions::default(),
    )
    .unwrap();
    w.write(deck.as_bytes()).unwrap();
    w.finish().unwrap();

    let reader = ShardedReader::open(&manifest).unwrap();
    assert!(!reader.is_single_file());
    assert_eq!(reader.shard_count(), 5);
    if cfg!(all(unix, target_pointer_width = "64")) {
        assert!(reader.bytes_mapped() > 0, "the deck is served from mmap");
    }
    assert_one_allocation_per_line(
        "sharded mmap",
        &deck,
        |i| reader.get(i),
        |is| reader.get_many(is),
    );
    std::fs::remove_dir_all(&dir).ok();
}
