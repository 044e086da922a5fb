//! A loose deck's untrusted metadata: a seeded mutation fuzz of the
//! `.zsx` sidecar through `ShardedReader::open_loose`, over the sidecars
//! `compress --index` writes for a base and a wide deck, and the magic
//! check every `.dct` load goes through.
//!
//! Each sidecar mutant — truncated, bit-flipped, its count or total field
//! set to an edge value, or swapped for the sidecar of another deck —
//! must open or fail with a typed error, never panic, and a deck that
//! opens reads the source deck line for line. No single allocation made
//! while opening may be larger than the sidecar, beyond a fixed 16 KiB
//! allowance: whatever the count field says, the open reserves what the
//! sidecar holds.
//!
//! A test binary of its own: the `#[global_allocator]` below records the
//! largest single allocation made on the thread that armed it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use molgen::Dataset;
use proptest::test_runner::TestRng;
use zsmiles_core::engine::{AnyDictionary, MAX_DICT_BYTES};
use zsmiles_core::{DictBuilder, LineIndex, ShardedReader, WideDictBuilder, ZsmilesError};

struct Tracking;

thread_local! {
    /// Largest allocation made on this thread while armed, or `None`
    /// when not armed.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().map(|l| l.max(size))));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the only addition is a thread-local maximum, which neither allocates
// nor touches the memory being managed.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Run `f`, returning its result and the largest single allocation it
/// made on this thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(Some(0)));
    let out = f();
    (out, LARGEST.with(|m| m.replace(None)).unwrap_or(0))
}

/// What an open may reserve at once: the sidecar's length, or a fixed
/// 16 KiB for the reader's own small tables, whichever is larger.
fn alloc_cap(sidecar: &[u8]) -> usize {
    sidecar.len().max(16 << 10)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_loose_wire_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One loose deck: its dictionary, payload, sidecar and source lines.
struct Input {
    name: &'static str,
    dict: AnyDictionary,
    payload: Vec<u8>,
    sidecar: Vec<u8>,
    lines: Vec<Vec<u8>>,
}

/// A base and a wide loose deck of one seeded 200-line deck, as
/// `compress --index` writes them. Preprocessing is off, so every line
/// reads back as the deck has it.
fn inputs() -> Vec<Input> {
    let deck = Dataset::generate_mixed(200, 0x105E);
    let base = DictBuilder {
        preprocess: false,
        ..Default::default()
    };
    let dicts = [
        (
            "base",
            AnyDictionary::Base(Box::new(base.clone().train(deck.iter()).unwrap())),
        ),
        (
            "wide",
            AnyDictionary::Wide(Box::new(
                WideDictBuilder {
                    base,
                    wide_size: 48,
                }
                .train(deck.iter())
                .unwrap(),
            )),
        ),
    ];
    dicts
        .into_iter()
        .map(|(name, dict)| {
            let (payload, _) = dict.compress_parallel(deck.as_bytes(), 1);
            let mut sidecar = Vec::new();
            LineIndex::build(&payload).write_to(&mut sidecar).unwrap();
            Input {
                name,
                dict,
                payload,
                sidecar,
                lines: deck.iter().map(<[u8]>::to_vec).collect(),
            }
        })
        .collect()
}

/// The count and total fields each set to 0, 1, its true value ± 1, the
/// sidecar's length, 2^63 and `u64::MAX`.
fn field_mutants(raw: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, at) in [("count", 8), ("total", 16)] {
        let truth = u64::from_le_bytes(raw[at..at + 8].try_into().unwrap());
        for v in [
            0,
            1,
            truth.wrapping_sub(1),
            truth.wrapping_add(1),
            raw.len() as u64,
            1 << 63,
            u64::MAX,
        ] {
            let mut m = raw.to_vec();
            m[at..at + 8].copy_from_slice(&v.to_le_bytes());
            out.push((format!("{name} = {v}"), m));
        }
    }
    out
}

/// Truncation at every offset, then `random` bit flips at seeded offsets.
fn byte_mutants(raw: &[u8], seed: u64, random: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = TestRng::from_seed(seed);
    let mut out = Vec::new();
    for cut in 0..raw.len() {
        out.push((format!("truncate at {cut}"), raw[..cut].to_vec()));
    }
    for _ in 0..random {
        let at = rng.below(raw.len() as u64) as usize;
        let bit = rng.below(8);
        let mut m = raw.to_vec();
        m[at] ^= 1 << bit;
        out.push((format!("flip bit {bit} of byte {at}"), m));
    }
    out
}

/// Open `zsmi` with `sidecar` beside it: no panic, an allocation cap, and
/// a deck that opens reads `input`'s lines. Returns whether it opened.
fn check_mutant(input: &Input, what: &str, zsmi: &Path, sidecar: &[u8]) -> bool {
    std::fs::write(zsx_of(zsmi), sidecar).unwrap();
    let dict = input.dict.clone();
    let (opened, largest) =
        largest_alloc(|| catch_unwind(AssertUnwindSafe(|| ShardedReader::open_loose(zsmi, dict))));
    let opened = opened.unwrap_or_else(|_| panic!("{what}: open_loose panicked"));
    assert!(
        largest <= alloc_cap(sidecar),
        "{what}: open reserved {largest} bytes for a {}-byte sidecar",
        sidecar.len()
    );
    let Ok(deck) = opened else {
        return false;
    };
    catch_unwind(AssertUnwindSafe(|| {
        assert_eq!(deck.len(), input.lines.len(), "{what}: line count");
        for (i, want) in input.lines.iter().enumerate() {
            assert_eq!(&deck.get(i).unwrap(), want, "{what}: line {i}");
        }
        assert_eq!(
            deck.get_range(0..deck.len()).unwrap(),
            input.lines,
            "{what}"
        );
    }))
    .unwrap_or_else(|_| panic!("{what}: an opened deck did not read the source deck"));
    true
}

fn zsx_of(zsmi: &Path) -> PathBuf {
    let mut p = zsmi.as_os_str().to_owned();
    p.push(".zsx");
    p.into()
}

#[test]
fn mutated_sidecars_error_or_read_the_loose_deck() {
    let dir = tmpdir("mutants");
    let zsmi = dir.join("deck.zsmi");
    let inputs = inputs();
    let v3 = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3/deck.zsmi.zsx");
    let others = [
        ("the v3 fixture's sidecar", std::fs::read(v3).unwrap()),
        ("the base deck's sidecar", inputs[0].sidecar.clone()),
        ("the wide deck's sidecar", inputs[1].sidecar.clone()),
    ];
    for (k, input) in inputs.iter().enumerate() {
        std::fs::write(&zsmi, &input.payload).unwrap();
        assert!(
            check_mutant(input, input.name, &zsmi, &input.sidecar),
            "{}: the unmutated sidecar opens",
            input.name
        );
        let mut mutants = field_mutants(&input.sidecar);
        mutants.extend(byte_mutants(&input.sidecar, 0x105E0 + k as u64, 300));
        mutants.extend(
            others
                .iter()
                .filter(|(_, other)| *other != input.sidecar)
                .map(|(what, other)| (what.to_string(), other.clone())),
        );
        let mut opened = 0;
        for (what, m) in &mutants {
            opened += check_mutant(input, &format!("{}: {what}", input.name), &zsmi, m) as usize;
        }
        println!(
            "loose_wire {}: {} mutants, {opened} opened, 0 panics",
            input.name,
            mutants.len()
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Regression: `AnyDictionary::read` handed bytes without a magic line
/// to the text parser, which copied the first line into a `String`
/// before checking it. The section of zeros the `.zsa` dictionary bound
/// admits (151 948 bytes) made a read reserve 262 144. The magic is now
/// checked on the bytes, so refusing them copies nothing.
#[test]
fn a_section_without_a_dictionary_magic_is_refused_before_it_is_copied() {
    let zeros = vec![0u8; MAX_DICT_BYTES];
    let (read, largest) = largest_alloc(|| AnyDictionary::read(&zeros).map(|_| ()));
    assert!(
        matches!(read, Err(ZsmilesError::DictFormat { .. })),
        "got {read:?}"
    );
    assert!(largest <= 16 << 10, "read reserved {largest} bytes");
}
