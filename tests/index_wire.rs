//! The line index on the wire and in memory: round trips against
//! `LineIndex::build` and a plain `split`, the v3 writer kept as an
//! oracle for the decks it wrote, the block-anchored in-memory layout
//! against a plain `Vec<Range>` oracle, the footprint of the v4 format
//! and of an open index, and a seeded mutation fuzz of the parser over
//! v1–v4 sidecars and the index section of a `.zsa`.
//!
//! A test binary of its own: the `#[global_allocator]` below records the
//! largest single allocation made on the thread that armed it, so the
//! fuzz can show that no parse reserves more than
//! `MAX_PREALLOC_LINES` entries, whatever count a mutation writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use molgen::Dataset;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use textcomp::crc32::crc32;
use zsmiles_core::index::MAX_PREALLOC_LINES;
use zsmiles_core::{AnyDictionary, Archive, ArchiveReader, Dictionary, LineIndex};

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

fn v4(idx: &LineIndex) -> Vec<u8> {
    let mut raw = Vec::new();
    idx.write_to(&mut raw).unwrap();
    raw
}

/// Every line's range, one `line_range` call each.
fn ranges_of(idx: &LineIndex) -> Vec<Range<usize>> {
    (0..idx.len()).map(|i| idx.line_range(i)).collect()
}

/// The v3 writer as it shipped: magic, count, total, then each line's
/// `(start, end)` as two little-endian `u64`s. Every deck packed before
/// v4 carries this layout, so it stays here as an oracle.
fn v3(idx: &LineIndex) -> Vec<u8> {
    v3_of(&ranges_of(idx), idx.total_bytes())
}

fn v3_of(ranges: &[Range<usize>], total: u64) -> Vec<u8> {
    let mut raw = b"ZSXIDX03".to_vec();
    raw.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    raw.extend_from_slice(&total.to_le_bytes());
    for r in ranges {
        raw.extend_from_slice(&(r.start as u64).to_le_bytes());
        raw.extend_from_slice(&(r.end as u64).to_le_bytes());
    }
    raw
}

/// A v1 (`flag == None`) or v2 sidecar: starts only, v2 with its
/// trailing-newline flag byte after the head.
fn legacy(idx: &LineIndex, flag: Option<bool>) -> Vec<u8> {
    legacy_of(&ranges_of(idx), idx.total_bytes(), flag)
}

fn legacy_of(ranges: &[Range<usize>], total: u64, flag: Option<bool>) -> Vec<u8> {
    let mut raw = match flag {
        None => b"ZSXIDX01".to_vec(),
        Some(_) => b"ZSXIDX02".to_vec(),
    };
    raw.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    raw.extend_from_slice(&total.to_le_bytes());
    raw.extend(flag.map(u8::from));
    for r in ranges {
        raw.extend_from_slice(&(r.start as u64).to_le_bytes());
    }
    raw
}

/// The v4 wire format written straight from a list of ranges, as the
/// module docs of `zsmiles_core::index` define it.
fn v4_of(ranges: &[Range<usize>], total: u64) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut raw = b"ZSXIDX04".to_vec();
    raw.extend_from_slice(&(ranges.len() as u64).to_le_bytes());
    raw.extend_from_slice(&total.to_le_bytes());
    let mut expected = 0;
    for r in ranges {
        let gap = (r.start - expected) as u64;
        varint(&mut raw, ((r.len() as u64 - 1) << 1) | u64::from(gap != 0));
        if gap != 0 {
            varint(&mut raw, gap);
        }
        expected = r.end + 1;
    }
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_le_bytes());
    raw
}

/// Rewrite the CRC32 closing a v4 index so it covers the bytes before it
/// again — what a buggy-but-honest writer would sign.
fn resign_v4(raw: &mut [u8]) {
    if raw.len() >= 4 && raw.starts_with(b"ZSXIDX04") {
        let at = raw.len() - 4;
        let crc = crc32(&raw[..at]);
        raw[at..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Every range non-empty, inside the described buffer, and at least one
/// separator byte past the previous one.
fn assert_well_formed(idx: &LineIndex, what: &str) {
    let mut prev_end = None;
    for i in 0..idx.len() {
        let r = idx.line_range(i);
        assert!(r.start < r.end, "{what}: line {i} empty {r:?}");
        assert!(
            r.end as u64 <= idx.total_bytes(),
            "{what}: line {i} {r:?} past {}",
            idx.total_bytes()
        );
        if let Some(p) = prev_end {
            assert!(r.start > p, "{what}: line {i} {r:?} not after {p}");
        }
        prev_end = Some(r.end);
    }
}

/// One piece of a generated buffer; each is followed by a newline. Blank
/// runs make leading, interior and trailing gaps; 64–65-byte lines sit
/// on the one/two-byte length varint boundary and 8 KiB ones on the
/// two/three-byte one.
fn segment() -> impl Strategy<Value = Vec<u8>> {
    let byte = any::<u8>().prop_filter("no newline", |&b| b != b'\n');
    prop_oneof![
        proptest::collection::vec(byte, 1..40),
        (64usize..66, b'A'..b'z').prop_map(|(n, b)| vec![b; n]),
        (8190usize..8200).prop_map(|n| vec![b'C'; n]),
        (1usize..300).prop_map(|n| vec![b'\n'; n]),
    ]
}

fn buffer() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(segment(), 0..10), any::<bool>()).prop_map(|(segs, cut)| {
        let mut buf = Vec::new();
        for s in segs {
            buf.extend_from_slice(&s);
            buf.push(b'\n');
        }
        if cut && buf.last() == Some(&b'\n') {
            buf.pop();
        }
        buf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// v4 round-trips every buffer shape, and the lines it slices are
    /// exactly the non-empty pieces of a split.
    #[test]
    fn v4_round_trips_and_slices_like_split(buf in buffer()) {
        let idx = LineIndex::build(&buf);
        let back = LineIndex::read_from(v4(&idx).as_slice()).unwrap();
        prop_assert_eq!(&back, &idx);
        prop_assert_eq!(back.wire_version(), Some(4));
        let split: Vec<&[u8]> = buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        prop_assert_eq!(back.len(), split.len());
        for (i, line) in split.iter().enumerate() {
            prop_assert_eq!(back.line(&buf, i), *line, "line {}", i);
        }
    }

    /// Sidecars and containers written by the v3 writer read back to the
    /// same index the v4 reader builds.
    #[test]
    fn v3_oracle_blobs_read_to_the_same_index(buf in buffer()) {
        let idx = LineIndex::build(&buf);
        let back = LineIndex::read_from(v3(&idx).as_slice()).unwrap();
        prop_assert_eq!(&back, &idx);
        prop_assert_eq!(back.wire_version(), Some(3));
        prop_assert!(v4(&idx).len() <= v3(&idx).len() + 4);
    }
}

/// One planned line: blank bytes before it when the selector is 0, and
/// its length.
type Planned = (u8, usize, usize);

fn planned() -> impl Strategy<Value = Planned> {
    (0u8..8, 1usize..=300, 1usize..4)
}

/// A buffer and the exact range of each of its lines, built side by
/// side. Whole 64-line blocks come first, each either regular (short
/// lines, no blank bytes except before its first line) or left as drawn
/// (about one line in eight after blank bytes, one in seven longer than
/// 255 bytes); then a partial block, optional trailing blanks, and an
/// optional final newline.
fn oracle_deck() -> impl Strategy<Value = (Vec<u8>, Vec<Range<usize>>)> {
    let block = (any::<bool>(), proptest::collection::vec(planned(), 64));
    (
        proptest::collection::vec(block, 0..5),
        proptest::collection::vec(planned(), 0..64),
        0usize..3,
        any::<bool>(),
    )
        .prop_map(|(blocks, tail, trailing, cut)| {
            let mut lines = Vec::new();
            for (regular, plan) in blocks {
                for (k, (sel, len, gap)) in plan.into_iter().enumerate() {
                    match regular {
                        true if k > 0 => lines.push((0, (len - 1) % 255 + 1)),
                        true => lines.push((usize::from(sel == 0) * gap, (len - 1) % 255 + 1)),
                        false => lines.push((usize::from(sel == 0) * gap, len)),
                    }
                }
            }
            lines.extend(
                tail.into_iter()
                    .map(|(sel, len, gap)| (usize::from(sel == 0) * gap, len)),
            );
            let (mut buf, mut ranges) = (Vec::new(), Vec::new());
            for (i, (gap, len)) in lines.into_iter().enumerate() {
                buf.resize(buf.len() + gap, b'\n');
                let start = buf.len();
                buf.extend((0..len).map(|j| b'A' + ((i + j) % 26) as u8));
                ranges.push(start..buf.len());
                buf.push(b'\n');
            }
            buf.resize(buf.len() + trailing, b'\n');
            if cut && trailing == 0 {
                buf.pop();
            }
            (buf, ranges)
        })
}

/// What a v1 (`flag == None`) or v2 sidecar of `ranges` reads back as:
/// each end derived one separator before the next start, the last from
/// the total and the trailing-newline flag (v1 assumes one); `None` when
/// a derived line is empty, which the reader refuses.
fn derived(ranges: &[Range<usize>], total: usize, flag: Option<bool>) -> Option<Vec<Range<usize>>> {
    let last_end = total.checked_sub(usize::from(flag.unwrap_or(true)))?;
    let ends = ranges.iter().skip(1).map(|r| r.start - 1).chain([last_end]);
    let out: Vec<Range<usize>> = ranges.iter().zip(ends).map(|(r, e)| r.start..e).collect();
    out.iter().all(|r| r.start < r.end).then_some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The block-anchored index describes exactly the oracle's ranges:
    /// per line, through the cursor over any run, after `append_scan` at
    /// line-aligned splits, in the v4 bytes it writes, and read back from
    /// every wire version.
    #[test]
    fn block_index_matches_a_plain_range_oracle(
        (buf, oracle) in oracle_deck(),
        cuts in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let n = oracle.len();
        let total = buf.len() as u64;
        let idx = LineIndex::build(&buf);
        prop_assert_eq!(idx.len(), n);
        prop_assert_eq!(ranges_of(&idx), oracle.clone());
        prop_assert_eq!(idx.ranges(0..n).collect::<Vec<_>>(), oracle.clone());
        for pair in cuts.chunks(2) {
            let a = (pair[0] % (n as u64 + 1)) as usize;
            let b = a + (pair.get(1).copied().unwrap_or(0) % (n - a + 1) as u64) as usize;
            let run = idx.ranges(a..b);
            prop_assert_eq!(run.len(), b - a);
            prop_assert_eq!(run.collect::<Vec<_>>(), oracle[a..b].to_vec(), "run {}..{}", a, b);
        }

        // Chunks that each end just after a newline (or at the end).
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&c| {
                let at = (c % (total + 1)) as usize;
                buf[at..].iter().position(|&b| b == b'\n').map_or(buf.len(), |p| at + p + 1)
            })
            .collect();
        ends.sort_unstable();
        let mut appended = LineIndex::default();
        let mut from = 0;
        for end in ends.into_iter().chain([buf.len()]) {
            appended.append_scan(&buf[from..end]);
            from = end;
        }
        prop_assert_eq!(&appended, &idx);
        prop_assert_eq!(appended.ranges(0..n).collect::<Vec<_>>(), oracle.clone());

        let written = v4(&idx);
        prop_assert_eq!(&written, &v4_of(&oracle, total));
        for (version, blob) in [(4, written), (3, v3_of(&oracle, total))] {
            let back = LineIndex::read_from(blob.as_slice()).unwrap();
            prop_assert_eq!(back.wire_version(), Some(version));
            prop_assert_eq!(ranges_of(&back), oracle.clone(), "v{}", version);
            prop_assert_eq!(&back, &idx);
        }
        let flag = Some(buf.last() == Some(&b'\n'));
        for flag in [None, flag] {
            let back = LineIndex::read_from(legacy_of(&oracle, total, flag).as_slice());
            match derived(&oracle, buf.len(), flag) {
                Some(want) => prop_assert_eq!(ranges_of(&back.unwrap()), want, "flag {:?}", flag),
                None => prop_assert!(back.is_err(), "flag {:?}", flag),
            }
        }
    }
}

#[test]
fn open_index_holds_about_one_and_an_eighth_bytes_per_line() {
    let ds = Dataset::generate_mixed(20_000, 7);
    let dict = AnyDictionary::Base(Box::new(Dictionary::builtin().clone()));
    let archive = Archive::pack(dict, ds.as_bytes(), 2);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();
    let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
    // One u64 anchor and 64 length bytes per 64-line block.
    let blocks = 20_000usize.div_ceil(64);
    assert_eq!(reader.index().heap_bytes(), blocks * (8 + 64));
    assert!(reader.index().heap_bytes() as f64 / 20_000.0 <= 1.2);
    assert!(archive.index().heap_bytes() <= reader.index().heap_bytes());
}

#[test]
fn empty_buffer_round_trips_in_28_bytes() {
    for buf in [&b""[..], b"\n\n\n"] {
        let idx = LineIndex::build(buf);
        let raw = v4(&idx);
        assert_eq!(raw.len(), 28, "head and CRC only");
        let back = LineIndex::read_from(raw.as_slice()).unwrap();
        assert_eq!(back, idx);
        assert!(back.is_empty());
        assert_eq!(back.total_bytes(), buf.len() as u64);
    }
}

#[test]
fn index_section_costs_about_one_byte_per_line() {
    let ds = Dataset::generate_mixed(20_000, 7);
    let dict = AnyDictionary::Base(Box::new(Dictionary::builtin().clone()));
    let archive = Archive::pack(dict, ds.as_bytes(), 2);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();
    let reader = ArchiveReader::from_source(blob.as_slice()).unwrap();
    assert_eq!(reader.len(), 20_000);
    assert_eq!(reader.index().wire_version(), Some(4));
    let limit = 1.01 * 20_000.0 + 28.0;
    assert!(
        reader.index_bytes() as f64 <= limit,
        "index section {} bytes > {limit}",
        reader.index_bytes()
    );
}

/// Seeded byte-level mutations of one blob: truncation at every offset,
/// then bit flips, inserts and deletes at random offsets, then edits of
/// the count and total fields. Each v4 mutant is also tried with its CRC
/// re-signed, so the structural checks behind the CRC get exercised.
fn mutants(raw: &[u8], seed: u64, random: usize) -> Vec<(String, Vec<u8>)> {
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
    let n = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let total = u64::from_le_bytes(raw[16..24].try_into().unwrap());
    let cap = MAX_PREALLOC_LINES as u64;
    let counts = [
        0,
        1,
        n.wrapping_sub(1),
        n + 1,
        cap,
        cap + 1,
        u64::MAX,
        rng.next_u64(),
    ];
    let totals = [
        0,
        total.wrapping_sub(1),
        total + 1,
        u64::MAX,
        rng.next_u64(),
    ];
    for (field, values) in [(8, &counts[..]), (16, &totals[..])] {
        for &v in values {
            let mut m = raw.to_vec();
            m[field..field + 8].copy_from_slice(&v.to_le_bytes());
            out.push((format!("set field at {field} to {v}"), m));
        }
    }
    let resigned: Vec<_> = out
        .iter()
        .filter(|(_, m)| m.starts_with(b"ZSXIDX04"))
        .map(|(what, m)| {
            let mut m = m.clone();
            resign_v4(&mut m);
            (format!("{what}, re-signed"), m)
        })
        .collect();
    out.extend(resigned);
    out
}

/// Parse one mutant: no panic, no reservation past the cap, and a
/// well-formed index whenever it parses.
fn parse_mutant(what: &str, m: &[u8]) -> Option<LineIndex> {
    let (parsed, largest) = largest_alloc(|| catch_unwind(|| LineIndex::read_from(m)));
    let parsed = parsed.unwrap_or_else(|_| panic!("{what}: read_from panicked"));
    assert!(
        largest <= MAX_PREALLOC_LINES * std::mem::size_of::<u64>(),
        "{what}: reserved {largest} bytes"
    );
    let idx = parsed.ok()?;
    assert_well_formed(&idx, what);
    Some(idx)
}

#[test]
fn mutated_sidecars_never_panic_or_overreserve() {
    let ds = Dataset::generate_mixed(120, 0x1DE);
    let dict = Dictionary::builtin();
    let mut z = Vec::new();
    zsmiles_core::Compressor::new(dict).compress_buffer(ds.as_bytes(), &mut z);
    let mut blank_runs = b"\n\nCCO\n\n\n".to_vec();
    blank_runs.extend(vec![b'N'; 200]);
    blank_runs.extend(vec![b'\n'; 150]);
    blank_runs.extend_from_slice(b"c1ccccc1");

    let mut parsed = 0;
    let mut cases = 0;
    for (b, buf) in [z, blank_runs].iter().enumerate() {
        let idx = LineIndex::build(buf);
        let flag = Some(buf.last() == Some(&b'\n'));
        for (v, raw) in [legacy(&idx, None), legacy(&idx, flag), v3(&idx), v4(&idx)]
            .iter()
            .enumerate()
        {
            for (what, m) in mutants(raw, (b * 4 + v) as u64, 150) {
                cases += 1;
                parsed +=
                    parse_mutant(&format!("buffer {b} v{}: {what}", v + 1), &m).is_some() as usize;
            }
        }
    }
    // The fuzz reaches past the parser's first checks: some mutants
    // still parse (a larger total, say, re-signed where there is a CRC).
    assert!(parsed > 0 && parsed < cases, "{parsed} of {cases} parsed");
}

/// The byte offsets of a container's index section.
fn index_section(blob: &[u8]) -> std::ops::Range<usize> {
    let footer = blob.len() - 20;
    let len = u64::from_le_bytes(blob[footer..footer + 8].try_into().unwrap()) as usize;
    footer - len..footer
}

/// `blob` with its index section replaced by `index`: the footer's
/// `index_len` follows it and the container CRC is re-signed, so the
/// container checks pass and the index parser is what gets exercised.
fn with_index(blob: &[u8], index: &[u8]) -> Vec<u8> {
    let mut out = blob[..index_section(blob).start].to_vec();
    out.extend_from_slice(index);
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&blob[blob.len() - 8..]);
    out
}

/// Open a mutated container both ways: each errors, or opens and answers
/// every line without panicking.
fn open_mutant(what: &str, blob: &[u8]) -> bool {
    let opened = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(archive) = Archive::read_from(blob) {
            assert_eq!(archive.index(), &LineIndex::build(archive.payload()));
            for i in 0..archive.len() {
                let _ = archive.get(i);
            }
        }
        let reader = ArchiveReader::from_source(blob).ok()?;
        assert_well_formed(reader.index(), what);
        for i in 0..reader.len() {
            let _ = reader.get(i);
        }
        let _ = reader.get_range(0..reader.len());
        Some(())
    }));
    opened
        .unwrap_or_else(|_| panic!("{what}: opening or reading panicked"))
        .is_some()
}

#[test]
fn mutated_container_indexes_error_or_read_without_panicking() {
    let ds = Dataset::generate_mixed(150, 0xC0DE);
    let dict = AnyDictionary::Base(Box::new(Dictionary::builtin().clone()));
    let archive = Archive::pack(dict, ds.as_bytes(), 1);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v3/deck.zsa"
    ))
    .unwrap();

    for (name, blob, random) in [("v4 .zsa", &blob, 200), ("v3 .zsa", &fixture, 60)] {
        let section = blob[index_section(blob)].to_vec();
        assert!(
            open_mutant(name, &with_index(blob, &section)),
            "{name} opens"
        );
        let mut opened = 0;
        for (what, m) in mutants(&section, 0x25A, random) {
            opened += open_mutant(&format!("{name}: {what}"), &with_index(blob, &m)) as usize;
        }
        assert!(opened > 0, "{name}: no mutant opened");
    }
}

/// `blob` rebuilt around another payload and index section: the header's
/// `payload_len`, the footer's `index_len` and the container CRC follow
/// them, so the container checks pass.
fn with_payload(blob: &[u8], payload: &[u8], index: &[u8]) -> Vec<u8> {
    let dict_len = u64::from_le_bytes(blob[16..24].try_into().unwrap()) as usize;
    let mut out = blob[..32 + dict_len].to_vec();
    out[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(index);
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&blob[blob.len() - 8..]);
    out
}

/// A container whose index is a legacy v1 or v2 one reads, out of core,
/// what `LineIndex::line` slices from its payload: over a payload with no
/// final newline, where a v1 index's derived last end falls one byte
/// short, and over one with blank lines, where derived ends run across
/// them.
#[test]
fn legacy_container_indexes_read_what_line_slices() {
    let ds = Dataset::generate_mixed(200, 0x1E6);
    let dict = AnyDictionary::Base(Box::new(Dictionary::builtin().clone()));
    let archive = Archive::pack(dict, ds.as_bytes(), 1);
    let mut blob = Vec::new();
    archive.write_to(&mut blob).unwrap();
    let unterminated = &archive.payload()[..archive.payload().len() - 1];
    let mut blanks = Vec::new();
    for (i, line) in unterminated.split(|&b| b == b'\n').enumerate() {
        if i > 0 {
            blanks.extend_from_slice(if i % 7 == 0 { b"\n\n" } else { b"\n" });
        }
        blanks.extend_from_slice(line);
    }
    for payload in [unterminated, &blanks] {
        let exact = ranges_of(&LineIndex::build(payload));
        for flag in [None, Some(false)] {
            let raw = legacy_of(&exact, payload.len() as u64, flag);
            let legacy = LineIndex::read_from(raw.as_slice()).unwrap();
            let container = with_payload(&blob, payload, &raw);
            let reader = ArchiveReader::from_source(container.as_slice()).unwrap();
            assert_eq!(reader.len(), 200);
            assert_eq!(reader.index_version(), Some(1 + u8::from(flag.is_some())));
            let mut want = Vec::new();
            for i in 0..reader.len() {
                let line = legacy.line(payload, i);
                assert_eq!(
                    reader.compressed_line(i).unwrap(),
                    line,
                    "flag {flag:?}, line {i}"
                );
                let mut smiles = Vec::new();
                reader
                    .dictionary()
                    .decompress_line(line, &mut smiles)
                    .unwrap();
                assert_eq!(reader.get(i).unwrap(), smiles, "flag {flag:?}, line {i}");
                want.push(smiles);
            }
            assert_eq!(reader.get_range(0..reader.len()).unwrap(), want);
            let lines: Result<Vec<_>, _> = reader.lines().collect();
            assert_eq!(lines.unwrap(), want);
        }
        // A legacy index that starts other lines than the payload holds
        // is refused at open, not read through its derived ends.
        let mut shifted = exact.clone();
        shifted[1].start += 1;
        let raw = legacy_of(&shifted, payload.len() as u64, None);
        let container = with_payload(&blob, payload, &raw);
        let Err(err) = ArchiveReader::from_source(container.as_slice()) else {
            panic!("a legacy index with a shifted start opened");
        };
        assert!(
            err.to_string()
                .contains("does not start the payload's lines"),
            "{err}"
        );
    }
}
