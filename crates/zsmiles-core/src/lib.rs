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
//! # Architecture: one codec value, two code widths, one container
//!
//! Two codecs implement the pipeline: the paper's one-byte dictionary
//! ([`dict::Dictionary`], encoded by [`Compressor`]) and the wide-code
//! extension ([`wide::WideDictionary`], two-byte codes behind page
//! prefixes, encoded by [`WideCompressor`]). Both run one encode kernel,
//! the right-to-left [`trie::ReverseAutomaton`] with the backward
//! shortest-path sweep of [`sp`]. Every width-independent layer takes an
//! [`engine::AnyDictionary`], which matches on the flavour once per
//! call, so each such layer exists once:
//!
//! * [`engine`] — [`engine::AnyDictionary`] (either flavour, sniffed from
//!   file magic): it hands out an [`engine::AnyCompressor`], decodes
//!   lines and buffers, and is the [`textcomp::LineCodec`] the
//!   baseline-comparison harness drives; plus the shared buffer loops and
//!   preprocessing stage;
//! * [`sp`] / [`trie`] — the encode kernel, and the reference engines
//!   ([`sp::encode_line`] and [`wide::encode_line`] over the node
//!   [`trie::Trie`] or the [`trie::DenseAutomaton`]) that tests and
//!   benches call directly as oracles;
//! * [`parallel`] — span-parallel execution on a persistent
//!   [`parallel::WorkerPool`] (no OS threads spawned per call);
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
//! * [`serve`] — the long-lived query service: a TCP server holding a
//!   [`shard::ShardedReader`] open and answering `get` / `get_range` /
//!   `get_many` / `stats` from many concurrent clients over a
//!   length-prefixed binary protocol, with atomic *generation flips* —
//!   the served deck swaps to a new dataset generation in one pointer
//!   exchange, in-flight requests drain on the old one, and the retired
//!   deck's blocks are forgotten from the block cache;
//! * [`shard`] — sharded multi-file archives: a readable `.zsm` manifest
//!   plus N complete `.zsa` shards ([`shard::ShardedWriter`] cuts by
//!   line/byte budget); [`shard::ShardedReader`] is the one deck reader:
//!   it routes global line numbers across a manifest's shards, and opens
//!   a bare `.zsa` as a one-shard deck;
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
pub use compress::{CompressStats, Compressor};
pub use decompress::{DecodeTable, DecompressStats, Decompressor};
pub use dict::builder::{DictBuilder, RankStrategy};
pub use dict::Dictionary;
pub use engine::{AnyCompressor, AnyDictionary, DictFlavor};
pub use error::ZsmilesError;
pub use fault::{Fault, FaultPlan, FaultySink, FaultySource};
pub use index::LineIndex;
pub use parallel::{compress_parallel_dyn, decompress_parallel_dyn, WorkerPool};
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
pub use topk::{score_order, top_k};
// The `train::DictBuilder` *trait* is deliberately not re-exported at the
// root: `zsmiles_core::DictBuilder` keeps naming the paper's Algorithm-1
// configuration struct, and the trait is reached as
// `zsmiles_core::train::DictBuilder`.
pub use train::{
    BaseBuilder, FsstBuilder, Selection, SmazBuilder, TrainCorpus, TrainOptions, TrainedModel,
    WideBuilder,
};
pub use trie::{CodePayload, DenseAutomaton, Matcher, ReverseAutomaton, Trie};
pub use wide::{WideCompressor, WideDecompressor, WideDictBuilder, WideDictionary};
pub use writer::{ArchiveWriter, PackInfo, WriterOptions};
