//! ZSMILES: dictionary-based SMILES compression with readable output,
//! separable lines and a shared dictionary — a Rust reproduction of
//! Accordi et al., *ZSMILES: an approach for efficient SMILES storage for
//! random access in Virtual Screening* (IPPS 2024, arXiv:2404.19391).
//!
//! # Design requirements (paper §I)
//!
//! 1. **Readable output** — compressed bytes are displayable characters;
//!    archives survive `grep`, `head`, text editors and third-party tools.
//! 2. **Separable SMILES / random access** — compressed line *i* is input
//!    molecule *i*; any subset of lines decompresses independently.
//! 3. **Shared dictionary** — one trained [`dict::Dictionary`] compresses
//!    *any* SMILES set, so archives can be cut and recombined freely.
//!
//! # Pipeline
//!
//! ```text
//! .smi ── preprocess (ring-ID renumber) ──► compress (trie + shortest path) ──► .zsmi
//! .zsmi ── decompress (table lookup) ──► postprocess (optional) ──► .smi
//! ```
//!
//! # Architecture: one engine interface, two code widths, one container
//!
//! Two codecs implement the pipeline: the paper's one-byte dictionary
//! ([`dict::Dictionary`]) and the wide-code extension
//! ([`wide::WideDictionary`], two-byte codes behind page prefixes). Both
//! are driven through the [`engine::Engine`] trait — and, for every layer
//! that learns the code width at run time, through its object-safe
//! facade [`engine::DynEngine`] — so every width-independent layer
//! exists once:
//!
//! * [`engine`] — the `Engine` / `LineEncoder` / `LineDecoder` traits,
//!   the dyn-safe [`engine::DynEngine`] facade (boxed worker minting;
//!   [`engine::AnyDictionary`] implements it directly, which makes the
//!   sniffed-at-run-time dictionary *the* engine object), the shared
//!   buffer loops and preprocessing stage, and [`textcomp::LineCodec`]
//!   adapters for the baseline-comparison harness;
//! * [`parallel`] / [`fileio`] — span-parallel execution of any engine,
//!   static or dyn, on a persistent [`parallel::WorkerPool`] (no OS
//!   threads spawned per call), and streaming chunk I/O on top of it;
//! * [`archive`] — the `.zsa` container: magic + header, embedded
//!   dictionary (either flavour), readable compressed payload, line-offset
//!   index and CRC32 footer in one self-describing file with O(1)
//!   `get(line)`; [`Archive`] is the all-in-memory convenience view;
//! * [`source`] / [`cache`] / [`reader`] — the out-of-core read path:
//!   [`source::ArchiveSource`] is a positioned-read byte container
//!   ([`source::FileSource`], zero-syscall [`source::MmapSource`],
//!   [`source::InMemorySource`], metering [`source::CountingSource`],
//!   and [`source::CachedSource`] — a thin adapter over the process-wide
//!   sharded LRU [`cache::BlockCache`] that concurrent readers share;
//!   [`source::AutoSource`] picks mmap or cached file I/O per platform),
//!   and [`reader::ArchiveReader`] opens a
//!   `.zsa` by seeking the footer, loads only header + dictionary +
//!   index, and serves `get` / `get_range` / batched iteration by
//!   reading exactly the payload byte ranges it needs — decks larger
//!   than RAM are first-class;
//! * [`sink`] / [`writer`] — the out-of-core write path, mirroring the
//!   read path: [`sink::ArchiveSink`] is an append-plus-one-patch byte
//!   consumer ([`sink::FileSink`], [`sink::InMemorySink`], metering
//!   [`sink::CountingSink`]) and [`writer::ArchiveWriter`] accepts raw
//!   deck bytes incrementally, compresses bounded batches on the
//!   persistent worker pool, grows the line index in place, and
//!   finalizes header/CRC/footer without ever materializing the payload;
//! * [`serve`] — the long-lived query service: a TCP server holding
//!   [`shard::DeckReader`]s open and answering `get` / `get_range` /
//!   `get_many` / `stats` from many concurrent clients over a
//!   length-prefixed binary protocol, with atomic *generation flips* —
//!   the served deck swaps to a new dataset generation in one pointer
//!   exchange, in-flight requests drain on the old one, and the retired
//!   deck's blocks are forgotten from the block cache;
//! * [`shard`] — sharded multi-file archives: a readable `.zsm` manifest
//!   plus N complete `.zsa` shards ([`shard::ShardedWriter`] cuts by
//!   line/byte budget, [`shard::ShardedReader`] routes global line
//!   numbers across shards, [`shard::DeckReader`] dispatches either
//!   layout behind one read surface);
//! * [`index`] — the exact per-line byte-range table, standalone (`.zsx`
//!   sidecar) or embedded in a container;
//! * [`topk`] — bounded best-k selection over per-line scores under one
//!   total order (NaN last, ties toward the smaller line), shared by
//!   screening campaigns and the server's `TOP_HITS`;
//! * [`train`] — corpus-driven dictionary training behind one
//!   [`train::DictBuilder`] trait: seeded reservoir sampling
//!   ([`train::TrainCorpus`]), Apriori substring harvesting, and greedy
//!   selection scored by the *actual* shortest-path encode cost
//!   ([`sp::encode_cost`]); [`train::BaseBuilder`] /
//!   [`train::WideBuilder`] produce [`engine::AnyDictionary`] values
//!   that flow through every layer above unchanged, and
//!   [`train::FsstBuilder`] / [`train::SmazBuilder`] train the
//!   `textcomp` baselines' tables on the same corpus for one-run
//!   comparisons.
//!
//! # Quickstart
//!
//! ```
//! use zsmiles_core::dict::builder::DictBuilder;
//! use zsmiles_core::{Compressor, Decompressor};
//!
//! let training: Vec<&[u8]> = vec![b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2"; 8];
//! let dict = DictBuilder { min_count: 2, ..Default::default() }
//!     .train(training.into_iter())
//!     .unwrap();
//!
//! let mut z = Vec::new();
//! Compressor::new(&dict).compress_line(b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2", &mut z);
//! assert!(z.len() < 35, "compressed to {} bytes", z.len());
//!
//! let mut back = Vec::new();
//! Decompressor::new(&dict).decompress_line(&z, &mut back).unwrap();
//! // Decompression returns the pre-processed (ring-ID-renumbered) form,
//! // which is the same molecule in valid SMILES.
//! assert_eq!(back, b"C0=CC=C(C=C0)C(=O)CC(=O)C0=CC=CC=C0");
//! ```

pub mod archive;
pub mod cache;
pub mod check;
pub mod codec;
pub mod compress;
pub mod decompress;
pub mod dict;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fileio;
pub mod index;
pub mod parallel;
pub mod reader;
pub mod serve;
pub mod shard;
pub mod sink;
pub mod source;
pub mod sp;
pub mod topk;
pub mod train;
pub mod trie;
pub mod wide;
pub mod writer;

pub use archive::Archive;
pub use cache::{BlockCache, BlockCacheStats};
pub use check::{
    check_deck, quarantine_shards, repair_deck, CheckReport, RepairOutcome, ShardCheck,
};
pub use codec::{Prepopulation, ESCAPE, LINE_SEP};
pub use compress::{CompressStats, Compressor, MatcherKind};
pub use decompress::{DecodeTable, DecompressStats, Decompressor};
pub use dict::builder::{DictBuilder, RankStrategy};
pub use dict::Dictionary;
pub use engine::{
    AnyDictionary, BaseEngine, DictFlavor, DynCodec, DynEngine, Engine, EngineCodec, LineDecoder,
    LineEncoder, WideEngine,
};
pub use error::ZsmilesError;
pub use fault::{Fault, FaultPlan, FaultySink, FaultySource};
pub use fileio::{
    compress_stream, compress_stream_dyn, compress_stream_engine, decompress_stream,
    decompress_stream_dyn, decompress_stream_engine, StreamOptions,
};
pub use index::LineIndex;
pub use parallel::{
    compress_parallel, compress_parallel_dyn, compress_parallel_engine, compress_parallel_wide,
    decompress_parallel, decompress_parallel_dyn, decompress_parallel_engine,
    decompress_parallel_wide, WorkerPool,
};
pub use reader::ArchiveReader;
pub use serve::{
    ClientOptions, HealthStats, QueryClient, ServeHandle, ServeOptions, ServeStats, Server,
};
pub use shard::{
    DeckOptions, DeckReader, QuarantinedShard, ShardManifest, ShardMeta, ShardPolicy,
    ShardedPackInfo, ShardedReader, ShardedWriter,
};
pub use sink::{
    sync_parent_dir, ArchiveSink, AtomicFileSink, CountingSink, DeferredSync, FileSink,
    InMemorySink,
};
pub use source::{
    ArchiveSource, AutoSource, CachedSource, CountingSource, FileSource, InMemorySource, MmapSource,
};
pub use sp::SpAlgorithm;
pub use topk::{score_order, top_k};
// The `train::DictBuilder` *trait* is deliberately not re-exported at the
// root: `zsmiles_core::DictBuilder` keeps naming the paper's Algorithm-1
// configuration struct, and the trait is reached as
// `zsmiles_core::train::DictBuilder`.
pub use train::{
    BaseBuilder, FsstBuilder, Selection, SmazBuilder, TrainCorpus, TrainOptions, TrainedModel,
    WideBuilder,
};
pub use trie::{
    CellWord, CodePayload, CompactAutomaton, CompactLayout, CompactView, DenseAutomaton, Matcher,
    Trie,
};
pub use wide::{WideCompressor, WideDecompressor, WideDictBuilder, WideDictionary};
pub use writer::{ArchiveWriter, PackInfo, WriterOptions};
