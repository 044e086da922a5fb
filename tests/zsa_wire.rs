//! The `.zsa` container's fixed-size header and footer as untrusted
//! input: a seeded mutation fuzz of `Archive::read_from` and
//! `ArchiveReader::from_source` over a base and a wide container packed
//! from a seeded deck, an empty-deck container and the committed
//! `tests/fixtures/v3/deck.zsa`.
//!
//! Each mutant must open or fail with a typed error, never panic. Every
//! read of a container that opens returns `Ok` or a typed error, and a
//! container that opens and also passes `verify()` (or `read_from`, which
//! checks the CRC first) reads back the source deck line for line. No
//! single allocation made while opening a mutant may be larger than the
//! mutant, beyond a fixed allowance for the dictionary's own tables:
//! whatever a length field says, the open reserves what the container
//! holds. Every field-value mutant also goes through `ShardedReader`
//! from a file, which must agree with `from_source`.
//!
//! A test binary of its own: the `#[global_allocator]` below records the
//! largest single allocation made on the thread that armed it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use molgen::Dataset;
use proptest::test_runner::TestRng;
use zsmiles_core::engine::{AnyDictionary, MAX_DICT_BYTES};
use zsmiles_core::{
    Archive, ArchiveReader, ArchiveSource, DictBuilder, ShardedReader, WideDictBuilder,
    ZsmilesError,
};

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

/// What an open may reserve at once: the container's length, or the
/// fixed tables a dictionary builds whatever its size (256-entry code
/// tables of 16-byte slots), whichever is larger.
fn alloc_cap(container: &[u8]) -> usize {
    container.len().max(16 << 10)
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_zsa_wire_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One container and the lines it must read back.
struct Input {
    name: &'static str,
    bytes: Vec<u8>,
    lines: Vec<Vec<u8>>,
}

fn container(dict: AnyDictionary, deck: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    Archive::pack(dict, deck, 1).write_to(&mut bytes).unwrap();
    bytes
}

/// A base and a wide container of a seeded 200-line deck, an empty-deck
/// container, and the v3 fixture. Preprocessing is off, so every line
/// reads back as the deck has it.
fn inputs() -> Vec<Input> {
    let deck = Dataset::generate_mixed(200, 0x25A);
    let base = DictBuilder {
        preprocess: false,
        ..Default::default()
    };
    let base_dict = AnyDictionary::Base(Box::new(base.clone().train(deck.iter()).unwrap()));
    let wide_dict = AnyDictionary::Wide(Box::new(
        WideDictBuilder {
            base,
            wide_size: 48,
        }
        .train(deck.iter())
        .unwrap(),
    ));
    let lines: Vec<Vec<u8>> = deck.iter().map(<[u8]>::to_vec).collect();
    let smi = std::fs::read(fixtures().join("deck.smi")).unwrap();
    vec![
        Input {
            name: "base",
            bytes: container(base_dict.clone(), deck.as_bytes()),
            lines: lines.clone(),
        },
        Input {
            name: "wide",
            bytes: container(wide_dict, deck.as_bytes()),
            lines,
        },
        Input {
            name: "empty deck",
            bytes: container(base_dict, b""),
            lines: Vec::new(),
        },
        Input {
            name: "v3 fixture",
            bytes: std::fs::read(fixtures().join("deck.zsa")).unwrap(),
            lines: smi
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .map(<[u8]>::to_vec)
                .collect(),
        },
    ]
}

/// Every header and footer field of an `n`-byte container: name, offset
/// and width in bytes.
fn fields(n: usize) -> [(&'static str, usize, usize); 8] {
    [
        ("magic", 0, 8),
        ("flavour tag", 8, 1),
        ("reserved", 9, 7),
        ("dict_len", 16, 8),
        ("payload_len", 24, 8),
        ("index_len", n - 20, 8),
        ("crc", n - 12, 4),
        ("trailer magic", n - 8, 8),
    ]
}

/// Each field set to 0, 1, its true value ± 1, the file length, 2^63 and
/// `u64::MAX` — the low bytes of each value, little-endian, in fields
/// narrower than eight bytes.
fn field_mutants(raw: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, at, width) in fields(raw.len()) {
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(&raw[at..at + width]);
        let truth = u64::from_le_bytes(word);
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
            m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
            out.push((format!("{name} = {v}"), m));
        }
    }
    out
}

/// Truncation at every offset, then `random` each of bit flips, inserted
/// and deleted bytes at seeded offsets.
fn byte_mutants(raw: &[u8], seed: u64, random: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = TestRng::from_seed(seed);
    let mut out = Vec::new();
    for cut in 0..raw.len() {
        out.push((format!("truncate at {cut}"), raw[..cut].to_vec()));
    }
    for _ in 0..random {
        let at = rng.below(raw.len() as u64) as usize;
        let mut m = raw.to_vec();
        let bit = rng.below(8);
        m[at] ^= 1 << bit;
        out.push((format!("flip bit {bit} of byte {at}"), m));

        let mut m = raw.to_vec();
        let b = rng.below(256) as u8;
        m.insert(at, b);
        out.push((format!("insert {b:#04x} at {at}"), m));

        let mut m = raw.to_vec();
        m.remove(at);
        out.push((format!("delete byte {at}"), m));
    }
    out
}

/// Every read surface of an opened deck, caught: each returns `Ok` or a
/// typed error. When the deck also passes `verify()`, every read must
/// return `$want`. Evaluates to whether it verified.
macro_rules! read_all {
    ($what:expr, $reader:expr, $want:expr) => {{
        let (what, reader, want): (&str, _, &[Vec<u8>]) = ($what, $reader, $want);
        catch_unwind(AssertUnwindSafe(|| {
            let n = reader.len();
            let gets: Vec<_> = (0..n).map(|i| reader.get(i)).collect();
            let compressed = (0..n)
                .filter(|&i| reader.compressed_line(i).is_ok())
                .count();
            let range = reader.get_range(0..n);
            let backwards: Vec<usize> = (0..n).rev().collect();
            let many = reader.get_many(&backwards);
            let streamed: Vec<_> = reader.lines().collect();
            let mut unpacked = Vec::new();
            let unpack = reader.unpack_to(&mut unpacked, 2, 4096);
            let verified = reader.verify().is_ok();
            if verified {
                assert_eq!(n, want.len(), "{what}: line count");
                for (i, got) in gets.into_iter().enumerate() {
                    assert_eq!(&got.unwrap(), &want[i], "{what}: line {i}");
                }
                assert_eq!(compressed, n, "{what}: compressed lines");
                assert_eq!(range.unwrap(), want, "{what}: get_range");
                let mut reversed = want.to_vec();
                reversed.reverse();
                assert_eq!(many.unwrap(), reversed, "{what}: get_many");
                let streamed: Result<Vec<Vec<u8>>, _> = streamed.into_iter().collect();
                assert_eq!(streamed.unwrap(), want, "{what}: lines()");
                unpack.unwrap();
                let joined: Vec<u8> = want.iter().flat_map(|l| [&l[..], b"\n"].concat()).collect();
                assert_eq!(unpacked, joined, "{what}: unpack_to");
            }
            verified
        }))
        .unwrap_or_else(|_| panic!("{what}: reading the opened container panicked"))
    }};
}

/// How one input's mutants fared.
#[derive(Debug, Default)]
struct Counts {
    mutants: usize,
    read_from: usize,
    opened: usize,
    verified: usize,
}

/// One mutant through `read_from` and `from_source`: no panic, an
/// accepted container reads as `input` when its CRC holds, and the open
/// reserves no more than [`alloc_cap`].
fn check_mutant(input: &Input, what: &str, m: &[u8], counts: &mut Counts) {
    counts.mutants += 1;
    let parsed = catch_unwind(|| Archive::read_from(m))
        .unwrap_or_else(|_| panic!("{what}: Archive::read_from panicked"));
    if let Ok(archive) = parsed {
        counts.read_from += 1;
        assert_eq!(
            archive.get_range(0..archive.len()).unwrap(),
            input.lines,
            "{what}: read_from accepted a container that reads differently"
        );
    }
    let (opened, largest) = largest_alloc(|| catch_unwind(|| ArchiveReader::from_source(m)));
    let opened = opened.unwrap_or_else(|_| panic!("{what}: from_source panicked"));
    assert!(
        largest <= alloc_cap(m),
        "{what}: open reserved {largest} bytes for a {}-byte container",
        m.len()
    );
    if let Ok(reader) = opened {
        counts.opened += 1;
        counts.verified += read_all!(what, &reader, &input.lines) as usize;
    }
}

/// A field-value mutant opened from `path` by `ShardedReader`, strict and
/// degraded: it opens exactly when `from_source` does, fails with the
/// same error, and reads as [`read_all!`] requires.
fn check_deck_open(input: &Input, what: &str, m: &[u8], path: &Path) {
    std::fs::write(path, m).unwrap();
    let direct = ArchiveReader::from_source(m).map(|_| ());
    for degraded in [false, true] {
        let what = format!("{what} (ShardedReader, degraded={degraded})");
        let opened = catch_unwind(|| match degraded {
            false => ShardedReader::open(path),
            true => ShardedReader::open_degraded(path),
        })
        .unwrap_or_else(|_| panic!("{what}: open panicked"));
        match (&direct, opened) {
            (Ok(()), Ok(reader)) => {
                assert_eq!(reader.shard_count(), 1, "{what}");
                read_all!(&what, &reader, &input.lines);
            }
            (Err(want), Err(got)) => assert_eq!(got.to_string(), want.to_string(), "{what}"),
            (want, got) => panic!("{what}: from_source {want:?}, ShardedReader {got:?}"),
        }
    }
}

#[test]
fn mutated_containers_error_or_read_the_source_deck() {
    let dir = tmpdir("mutants");
    let path = dir.join("mutant.zsa");
    for (k, input) in inputs().iter().enumerate() {
        // The unmutated container opens every way and reads the deck.
        let mut counts = Counts::default();
        check_mutant(input, input.name, &input.bytes, &mut counts);
        assert_eq!(
            (counts.read_from, counts.verified),
            (1, 1),
            "{}",
            input.name
        );
        check_deck_open(input, input.name, &input.bytes, &path);

        let mut counts = Counts::default();
        for (what, m) in field_mutants(&input.bytes) {
            let what = format!("{}: {what}", input.name);
            check_mutant(input, &what, &m, &mut counts);
            check_deck_open(input, &what, &m, &path);
        }
        for (what, m) in byte_mutants(&input.bytes, 0x25A0 + k as u64, 300) {
            check_mutant(input, &format!("{}: {what}", input.name), &m, &mut counts);
        }
        println!("zsa_wire {}: {counts:?}, 0 panics", input.name);
        // The fuzz reaches past the header: some mutants open, not all.
        assert!(
            0 < counts.opened && counts.opened < counts.mutants,
            "{}: {counts:?}",
            input.name
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A source `len` bytes long that reads as zeros apart from a container
/// header and footer.
struct Sparse {
    len: u64,
    header: [u8; 32],
    footer: [u8; 20],
}

impl ArchiveSource for Sparse {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), ZsmilesError> {
        let end = offset
            .checked_add(buf.len() as u64)
            .filter(|&end| end <= self.len)
            .ok_or(ZsmilesError::SourceOutOfBounds {
                offset,
                len: buf.len(),
                available: self.len,
            })?;
        buf.fill(0);
        for (at, part) in [(0, &self.header[..]), (self.len - 20, &self.footer[..])] {
            let (lo, hi) = (offset.max(at), end.min(at + part.len() as u64));
            if lo < hi {
                buf[(lo - offset) as usize..(hi - offset) as usize]
                    .copy_from_slice(&part[(lo - at) as usize..(hi - at) as usize]);
            }
        }
        Ok(())
    }
}

/// A header and footer whose `dict_len` claims every byte of a `len`-byte
/// container, with no payload and no index.
fn claims_a_dictionary_of(len: u64) -> Sparse {
    let mut header = [0u8; 32];
    header[..8].copy_from_slice(b"ZSAR0001");
    header[8] = 1;
    header[16..24].copy_from_slice(&(len - 52).to_le_bytes());
    let mut footer = [0u8; 20];
    footer[12..].copy_from_slice(b"ZSAREND1");
    Sparse {
        len,
        header,
        footer,
    }
}

/// Regression: the out-of-core open read `dict_len` bytes into one
/// buffer before parsing them, bounded only by the file's length. 52
/// bytes of header and footer over a 64 MiB source made it reserve
/// 64 MiB and then fail with `DictFormat`; over a multi-TB deck the same
/// bytes abort the process. A `dict_len` past the largest dictionary the
/// writer can emit is now refused as `ArchiveFormat` before any read.
#[test]
fn a_dict_len_past_the_largest_dictionary_is_refused_before_it_is_read() {
    const LEN: u64 = 64 << 20;
    let (opened, largest) =
        largest_alloc(|| ArchiveReader::from_source(claims_a_dictionary_of(LEN)).map(|_| ()));
    let err = opened.unwrap_err();
    assert!(
        matches!(&err, ZsmilesError::ArchiveFormat { reason } if reason.contains("dict_len")),
        "got {err}"
    );
    assert!(largest < 1 << 20, "open reserved {largest} bytes");

    // The same 52 bytes in a sparse file: the deck reader refuses it too.
    let dir = tmpdir("sparse");
    let path = dir.join("sparse.zsa");
    let source = claims_a_dictionary_of(LEN);
    let mut file = std::fs::File::create(&path).unwrap();
    file.write_all(&source.header).unwrap();
    file.seek(SeekFrom::Start(LEN - 20)).unwrap();
    file.write_all(&source.footer).unwrap();
    drop(file);
    let (opened, largest) = largest_alloc(|| ShardedReader::open(&path).map(|_| ()));
    assert!(
        matches!(opened, Err(ZsmilesError::ArchiveFormat { .. })),
        "got {opened:?}"
    );
    assert!(largest < 1 << 20, "deck open reserved {largest} bytes");
    std::fs::remove_dir_all(dir).ok();

    // At the bound itself the dictionary is read, and these zeros fail
    // to parse as one; the parser's line buffer grows by doubling.
    let len = 52 + MAX_DICT_BYTES as u64;
    let (opened, largest) =
        largest_alloc(|| ArchiveReader::from_source(claims_a_dictionary_of(len)).map(|_| ()));
    assert!(
        matches!(opened, Err(ZsmilesError::DictFormat { .. })),
        "got {opened:?}"
    );
    assert!(
        largest <= 2 * MAX_DICT_BYTES,
        "open reserved {largest} bytes"
    );
}
