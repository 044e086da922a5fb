//! Virtual-screening substrate — the workload the paper's storage design
//! exists for (§I).
//!
//! An extreme-scale campaign does three things with its chemical library:
//!
//! 1. **screen** — score every ligand against one or more target pockets
//!    (embarrassingly parallel; the 72 TB Marconi100 run in the paper);
//! 2. **archive** — store the deck and its scores in cold storage, where
//!    compression ratio is the cost driver;
//! 3. **sample** — domain experts pull small subsets (top hits, random
//!    spot-checks) back out, which is what makes *random access* a hard
//!    requirement and rules out stateful compressors.
//!
//! This crate implements all three at laptop scale against the real
//! `zsmiles-core` codec: a deterministic docking *surrogate* (feature-based
//! scoring — chemistry-shaped, reproducible, no force field), scored decks,
//! and compressed archives with O(1) line access. The examples and the
//! `scale` harness build on it.
//!
//! ```
//! use molgen::Dataset;
//! use vscreen::{Archive, Pocket, screen};
//! use zsmiles_core::DictBuilder;
//!
//! let deck = Dataset::generate_mixed(200, 42);
//! let pocket = Pocket::from_seed(7);
//! let scores = screen(&deck, &pocket);
//!
//! let dict = DictBuilder::default().train(deck.iter()).unwrap();
//! let archive = Archive::build(&dict, deck.as_bytes());
//! let hits = vscreen::top_hits(&archive, &scores, 5).unwrap();
//! assert_eq!(hits.len(), 5);
//! assert!(archive.ratio() < 1.0);
//! ```

pub mod archive;
pub mod campaign;
pub mod filter;
pub mod pocket;
pub mod score;
pub mod wire;

pub use archive::{Archive, ColdArchive};
pub use campaign::{
    score_line, screen, screen_parallel, top_hits, top_hits_cold, Hit, Scorer, StorageModel,
};
pub use filter::{ro5_filter, Ro5Profile};
pub use pocket::{parse_pocket_seed, Pocket};
pub use score::ScoreTable;
pub use wire::PocketScreener;
