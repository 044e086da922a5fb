//! Ring-ID preprocessing and the postprocess decode path are
//! allocation-free once warmed.
//!
//! A test binary of its own: the counting `#[global_allocator]` below
//! replaces the allocator for the whole process, and counts only on the
//! thread that turned counting on, so the harness's own threads cannot
//! disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use molgen::Dataset;
use smiles::preprocess::{Preprocessor, RingRenumber};
use zsmiles_core::{Compressor, Decompressor, Dictionary};

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

#[test]
fn warmed_preprocessing_and_postprocessing_do_not_allocate() {
    let deck = Dataset::generate_mixed(4_000, 7);
    let strategies = [
        (RingRenumber::Innermost, 0),
        (RingRenumber::Outermost, 0),
        (RingRenumber::Outermost, 1),
    ];
    let mut pp = Preprocessor::new();
    let mut out = Vec::new();
    let pass = |pp: &mut Preprocessor, out: &mut Vec<u8>| {
        let mut renumbered = 0;
        for (strategy, first_id) in strategies {
            for line in deck.iter() {
                out.clear();
                renumbered += pp.process_into(line, strategy, first_id, out).is_ok() as usize;
            }
        }
        renumbered
    };
    let warm = pass(&mut pp, &mut out);
    let mut steady = 0;
    assert_eq!(allocations(|| steady = pass(&mut pp, &mut out)), 0);
    assert_eq!(steady, warm);
    assert!(steady > 0);

    // The same deck decoded with `--postprocess` semantics: one warmed
    // decompressor, one reused output buffer.
    let dict = Dictionary::builtin();
    let mut z = Vec::new();
    Compressor::new(dict).compress_buffer(deck.as_bytes(), &mut z);
    let mut dc = Decompressor::new(dict).with_postprocess(true);
    let mut back = Vec::new();
    dc.decompress_buffer(&z, &mut back).unwrap();
    let warm_len = back.len();
    assert_eq!(
        allocations(|| {
            back.clear();
            dc.decompress_buffer(&z, &mut back).unwrap();
        }),
        0
    );
    assert_eq!(back.len(), warm_len);
}
