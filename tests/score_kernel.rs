//! The screening kernel: every score keeps the bits it had when scores
//! were read off a parsed molecular graph, and a warmed scorer does not
//! allocate.
//!
//! A test binary of its own: the counting `#[global_allocator]` below
//! replaces the allocator for the whole process, and counts only on the
//! thread that turned counting on, so the harness's own threads cannot
//! disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use molgen::Dataset;
use vscreen::{score_line, screen, screen_parallel, Pocket, PocketScreener, Scorer};
use zsmiles_core::serve::Screener;

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

/// FNV-1a over the little-endian bits of every score, in line order.
fn score_hash(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `score_hash` of `screen(generate_mixed(20_000, 7), from_seed(0xD0C5EED))`,
/// recorded when every score was computed from a parsed `Molecule`.
const GOLDEN_SCORE_HASH: u64 = 0xbb6d_268d_6f3c_6b9a;

#[test]
fn screen_scores_keep_their_bits() {
    let deck = Dataset::generate_mixed(20_000, 7);
    let pocket = Pocket::from_seed(0xD0C5EED);
    let serial = screen(&deck, &pocket);
    assert_eq!(serial.len(), 20_000);
    assert_eq!(score_hash(serial.as_slice()), GOLDEN_SCORE_HASH);
    let parallel = screen_parallel(&deck, &pocket, 3);
    assert_eq!(score_hash(parallel.as_slice()), GOLDEN_SCORE_HASH);
}

/// A deck as a sweep sees it: raw lines, their ring-renumbered forms,
/// and lines that fail to lex or parse.
fn mixed_lines() -> Vec<Vec<u8>> {
    let deck = Dataset::generate_mixed(4_096, 11);
    let mut lines: Vec<Vec<u8>> = Vec::new();
    for (i, line) in deck.iter().enumerate() {
        lines.push(match i % 4 {
            0 => smiles::preprocess(line).unwrap_or_else(|_| line.to_vec()),
            1 if i % 64 == 1 => [line, b"(C"].concat(),
            2 if i % 64 == 2 => [line, b"[Xx]"].concat(),
            _ => line.to_vec(),
        });
    }
    lines
}

#[test]
fn a_warmed_scorer_scores_a_deck_without_allocating() {
    let lines = mixed_lines();
    let pocket = Pocket::from_seed(5);
    let mut scorer = Scorer::new();
    let pass = |scorer: &mut Scorer| {
        lines
            .iter()
            .fold(0u64, |h, l| h ^ scorer.score(l, &pocket).to_bits())
    };
    let warm = pass(&mut scorer);
    let mut steady = 0;
    assert_eq!(allocations(|| steady = pass(&mut scorer)), 0);
    assert_eq!(steady, warm);

    // The thread's own scorer, as `score_line` uses it.
    let warm: Vec<u64> = lines
        .iter()
        .map(|l| score_line(l, &pocket).to_bits())
        .collect();
    let mut again = Vec::with_capacity(lines.len());
    assert_eq!(
        allocations(|| again.extend(lines.iter().map(|l| score_line(l, &pocket).to_bits()))),
        0
    );
    assert_eq!(again, warm);
    assert!(
        lines
            .iter()
            .any(|l| score_line(l, &pocket) == f64::NEG_INFINITY),
        "some lines fail to parse"
    );
}

#[test]
fn score_batch_allocates_the_same_for_64_or_4096_lines() {
    let lines = mixed_lines();
    let pattern = "0xD0C5EED";
    PocketScreener
        .score_batch(pattern, &lines, &mut Vec::new())
        .unwrap();
    let batch = |n: usize| {
        allocations(|| {
            let mut out = Vec::new();
            PocketScreener
                .score_batch(pattern, &lines[..n], &mut out)
                .unwrap();
            assert_eq!(out.len(), n);
        })
    };
    let (small, large) = (batch(64), batch(4_096));
    assert_eq!(small, large);
    assert!(large <= 1, "{large} allocations: only the output may grow");
}
