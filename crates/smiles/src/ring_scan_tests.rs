//! Differential tests for the ring scan and the one-pass renumbering.
//!
//! `Lexer::next_ring` must yield exactly the ring tokens, spans and first
//! error of `Lexer::next_token` filtered to rings, and
//! `Preprocessor::process_into` must match the token-driven oracle below:
//! lex every token, pair the ring digits, color the intervals by an
//! explicit sort, and splice the edits back in position order. Both are
//! checked through every byte-classification path the CPU runs
//! (`ByteScan::available`), on random lines, on whole generated decks,
//! and on lines that put each kind of token across the scan's 16- and
//! 64-byte step edges. The paths and the writer a line took are
//! crate-private, so these tests live inside the crate.

use crate::error::SmilesError;
use crate::lexer::{ByteScan, Lexer, Spanned};
use crate::preprocess::{Preprocessor, RingRenumber, MAX_RING_ID};
use crate::token::{RingForm, Token};
use molgen::Dataset;
use proptest::prelude::*;
use std::cell::RefCell;

/// Every ring token via `next_token`, or its first error.
fn rings_by_token(line: &[u8]) -> Result<Vec<Spanned>, SmilesError> {
    let mut lexer = Lexer::new(line);
    let mut rings = Vec::new();
    while let Some(st) = lexer.next_token()? {
        if matches!(st.token, Token::Ring { .. }) {
            rings.push(st);
        }
    }
    Ok(rings)
}

fn rings_by_scan(line: &[u8], scan: ByteScan) -> Result<Vec<Spanned>, SmilesError> {
    let mut lexer = Lexer::new(line);
    let mut rings = Vec::new();
    while let Some(st) = lexer.next_ring_via(scan)? {
        rings.push(st);
    }
    Ok(rings)
}

/// `rings_by_scan` through every path equals `rings_by_token`.
fn assert_scans_match_tokens(line: &[u8]) {
    let want = rings_by_token(line);
    for scan in ByteScan::available() {
        assert_eq!(
            rings_by_scan(line, scan),
            want,
            "{:?} {}",
            scan,
            String::from_utf8_lossy(line)
        );
    }
}

/// One open/close ring-digit pair: byte spans and ring-token sequence
/// numbers.
#[derive(Clone, Copy)]
struct Pair {
    open: (usize, usize),
    close: (usize, usize),
    open_seq: u32,
    close_seq: u32,
}

/// The token-driven renumbering: pairs found from the full token stream,
/// greedy coloring in close (innermost) or open (outermost) order with
/// an O(n²) intersection test, edits sorted by position.
fn oracle(line: &[u8], strategy: RingRenumber, first_id: u16) -> Result<Vec<u8>, SmilesError> {
    if strategy == RingRenumber::Preserve {
        return Ok(line.to_vec());
    }
    let mut pairs: Vec<Pair> = Vec::new();
    let mut open_slots = [-1i32; 100];
    let mut lexer = Lexer::new(line);
    let mut seq = 0u32;
    while let Some(st) = lexer.next_token()? {
        if let Token::Ring { id, .. } = st.token {
            let slot = &mut open_slots[id as usize];
            let span = (st.span.start, st.span.end);
            if *slot < 0 {
                pairs.push(Pair {
                    open: span,
                    close: (0, 0),
                    open_seq: seq,
                    close_seq: u32::MAX,
                });
                *slot = (pairs.len() - 1) as i32;
            } else {
                let p = &mut pairs[*slot as usize];
                p.close = span;
                p.close_seq = seq;
                *slot = -1;
            }
            seq += 1;
        }
    }
    if let Some(id) = open_slots.iter().position(|&s| s >= 0) {
        return Err(SmilesError::UnclosedRing { id: id as u16 });
    }
    if pairs.is_empty() {
        return Ok(line.to_vec());
    }

    let n = pairs.len();
    let mut assigned = vec![u16::MAX; n];
    let mut order: Vec<usize> = (0..n).collect();
    match strategy {
        RingRenumber::Innermost => order.sort_unstable_by_key(|&i| pairs[i].close_seq),
        _ => order.sort_unstable_by_key(|&i| pairs[i].open_seq),
    }
    for &pi in &order {
        let p = pairs[pi];
        let mut taken = [false; 100];
        for (qi, q) in pairs.iter().enumerate() {
            let disjoint = p.close_seq < q.open_seq || q.close_seq < p.open_seq;
            if assigned[qi] != u16::MAX && !disjoint {
                taken[assigned[qi] as usize] = true;
            }
        }
        assigned[pi] = (first_id..=MAX_RING_ID)
            .find(|&id| !taken[id as usize])
            .ok_or(SmilesError::RingIdSpaceExhausted { concurrent: n })?;
    }

    let mut edits: Vec<((usize, usize), u16)> = Vec::new();
    for (i, p) in pairs.iter().enumerate() {
        edits.push((p.open, assigned[i]));
        edits.push((p.close, assigned[i]));
    }
    edits.sort_unstable_by_key(|(span, _)| span.0);
    let mut out = Vec::new();
    let mut pos = 0;
    for ((start, end), id) in edits {
        out.extend_from_slice(&line[pos..start]);
        let form = if id < 10 {
            RingForm::Digit
        } else {
            RingForm::Percent
        };
        Token::Ring { id, form }.write_to(&mut out);
        pos = end;
    }
    out.extend_from_slice(&line[pos..]);
    Ok(out)
}

thread_local! {
    /// One preprocessor per classification path for every case on a
    /// thread, as a compressor keeps one for every line: scratch left by a
    /// failed line must not leak into the next.
    static SHARED: RefCell<Vec<Preprocessor>> = RefCell::new(
        ByteScan::available().into_iter().map(Preprocessor::with_scan).collect()
    );
}

/// Which writer the renumbered lines took.
#[derive(Debug, Default)]
struct Writers {
    in_place: usize,
    spliced: usize,
}

/// `process_into` through every classification path, which must agree;
/// successful lines are counted into `writers` by the writer they took.
fn processed_counting(
    line: &[u8],
    strategy: RingRenumber,
    first_id: u16,
    writers: &mut Writers,
) -> Result<Vec<u8>, SmilesError> {
    SHARED.with(|pps| {
        let mut first = None;
        for pp in pps.borrow_mut().iter_mut() {
            let mut out = b"kept".to_vec();
            let got = pp.process_into(line, strategy, first_id, &mut out);
            assert_eq!(&out[..4], b"kept", "existing output is never touched");
            let got = got
                .map(|()| out[4..].to_vec())
                .inspect_err(|_| assert_eq!(out, b"kept", "nothing appended on error"));
            if got.is_ok() {
                if pp.spliced() {
                    writers.spliced += 1;
                } else {
                    writers.in_place += 1;
                }
            }
            match &first {
                None => first = Some(got),
                Some(want) => assert_eq!(&got, want, "paths disagree"),
            }
        }
        first.expect("the scalar path always runs")
    })
}

fn processed(line: &[u8], strategy: RingRenumber, first_id: u16) -> Result<Vec<u8>, SmilesError> {
    processed_counting(line, strategy, first_id, &mut Writers::default())
}

/// Both strategies through every path against the oracle, counted.
fn assert_processed_matches_oracle(line: &[u8], first_id: u16, writers: &mut Writers) {
    for strategy in [RingRenumber::Innermost, RingRenumber::Outermost] {
        assert_eq!(
            processed_counting(line, strategy, first_id, writers),
            oracle(line, strategy, first_id),
            "{} {:?} from {}",
            String::from_utf8_lossy(line),
            strategy,
            first_id
        );
    }
}

/// The first IDs the differential tests draw from: both ends of the
/// range, so small pools exhaust.
const FIRST_IDS: [u16; 19] = [
    0, 1, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101,
];

/// Pieces of SMILES-alphabet lines, including every byte class the scan
/// steps over, the two-letter bare atoms, their look-alikes, bracket
/// atoms (good and bad), and lexical traps.
const PIECES: &[&str] = &[
    "C", "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "p", "B", "b", "F", "I", "Cl",
    "Br", "l", "r", "e", "se", "as", "a", "H", "(", ")", "(", ")", ".", "=", "#", "-", "$", ":",
    "/", "\\", "*", "[NH4+]", "[13C@@H]", "[se]", "[O-]", "[Fe+2]", "[C", "[]", "[Xx]", "%", "%1",
    "!", " ",
];

/// A SMILES-alphabet line: pieces interleaved with ring digits and `%nn`
/// closures drawn from a small ID pool, so pairs nest, interleave and
/// reuse IDs.
fn arb_alphabet_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0usize..PIECES.len() + 12, 0u16..100), 0..48).prop_map(|items| {
        let mut line = Vec::new();
        for (pick, n) in items {
            match pick.checked_sub(PIECES.len()) {
                None => line.extend_from_slice(PIECES[pick].as_bytes()),
                Some(k) if k < 8 => line.push(b'0' + (n % 10) as u8),
                Some(_) => line.extend_from_slice(format!("%{:02}", n % 16 + 5).as_bytes()),
            }
        }
        line
    })
}

/// A lexically valid line whose rings always close: atoms and bonds with
/// ring IDs opened and closed at random over a pool of `pool` IDs, and
/// every ring still open closed at the end.
fn arb_closed_rings_line() -> impl Strategy<Value = Vec<u8>> {
    (
        1u16..40,
        proptest::collection::vec((0u8..6, 0u16..100), 1..64),
    )
        .prop_map(|(pool, items)| {
            let atoms = ["C", "c", "N", "Cl", "Br", "[nH]", "O", "S", "s"];
            let mut open = [false; 100];
            let mut line = b"C".to_vec();
            let ring = |line: &mut Vec<u8>, id: u16| {
                let form = if id < 10 {
                    RingForm::Digit
                } else {
                    RingForm::Percent
                };
                Token::Ring { id, form }.write_to(line);
            };
            for (kind, n) in items {
                match kind {
                    0..=2 => line.extend_from_slice(atoms[n as usize % atoms.len()].as_bytes()),
                    3 => line.extend_from_slice(b"="),
                    _ => {
                        let id = n % pool;
                        open[id as usize] = !open[id as usize];
                        ring(&mut line, id);
                    }
                }
            }
            for id in 0..100u16 {
                if open[id as usize] {
                    line.push(b'C');
                    ring(&mut line, id);
                }
            }
            line
        })
}

/// Either kind of line: most alphabet lines fail to lex or leave a ring
/// open, closed-ring lines always pair up.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![arb_alphabet_line(), arb_closed_rings_line()]
}

fn arb_first_id() -> impl Strategy<Value = u16> {
    (0..FIRST_IDS.len()).prop_map(|i| FIRST_IDS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn next_ring_matches_filtered_next_token_on_bytes(
        line in proptest::collection::vec(any::<u8>(), 0..160)
    ) {
        assert_scans_match_tokens(&line);
    }

    #[test]
    fn next_ring_matches_filtered_next_token_on_alphabet_lines(line in arb_alphabet_line()) {
        assert_scans_match_tokens(&line);
    }

    #[test]
    fn process_into_matches_token_oracle(
        line in arb_line(),
        first_id in arb_first_id(),
        outermost in any::<bool>(),
    ) {
        let strategy = if outermost { RingRenumber::Outermost } else { RingRenumber::Innermost };
        prop_assert_eq!(
            processed(&line, strategy, first_id),
            oracle(&line, strategy, first_id),
            "{} {:?} from {}", String::from_utf8_lossy(&line), strategy, first_id
        );
    }
}

/// The differential inputs reach success and every error kind often.
#[test]
fn oracle_inputs_reach_success_and_every_error_kind() {
    let mut seen = [0usize; 4];
    let mut rng = proptest::test_runner::TestRng::from_seed(7);
    for _ in 0..4096 {
        let line = arb_line().sample(&mut rng);
        let first_id = arb_first_id().sample(&mut rng);
        seen[match oracle(&line, RingRenumber::Innermost, first_id) {
            Ok(_) => 0,
            Err(SmilesError::UnclosedRing { .. }) => 1,
            Err(SmilesError::RingIdSpaceExhausted { .. }) => 2,
            Err(_) => 3,
        }] += 1;
    }
    assert!(seen.iter().all(|&n| n >= 50), "outcome counts {seen:?}");
}

#[test]
fn one_hundred_concurrent_rings_exhaust_ids_from_one() {
    let mut line = b"C".to_vec();
    for id in 0..100 {
        line.extend_from_slice(format!("%{id:02}").as_bytes());
    }
    line.push(b'C');
    for id in 0..100 {
        line.extend_from_slice(format!("%{id:02}").as_bytes());
    }
    for strategy in [RingRenumber::Innermost, RingRenumber::Outermost] {
        assert_eq!(
            processed(&line, strategy, 1),
            Err(SmilesError::RingIdSpaceExhausted { concurrent: 100 })
        );
        assert_eq!(processed(&line, strategy, 0), oracle(&line, strategy, 0));
        assert!(processed(&line, strategy, 0).is_ok());
    }
}

/// Every line of four generated decks, both strategies, every path, the
/// first ID cycling through [`FIRST_IDS`]: the deck's lines take the
/// in-place writer from IDs 0 and 1 and the splice from IDs of 10 or
/// more.
#[test]
fn process_into_matches_token_oracle_on_generated_decks() {
    let mut writers = Writers::default();
    for seed in [7, 0xBEEF, 22_001, 40_101] {
        let deck = Dataset::generate_mixed(20_000, seed);
        for (i, line) in deck.iter().enumerate() {
            assert_processed_matches_oracle(line, FIRST_IDS[i % FIRST_IDS.len()], &mut writers);
        }
    }
    assert!(
        writers.in_place > 10_000 && writers.spliced > 1_000,
        "{writers:?}"
    );
}

/// Filler with no ring bond and no byte the scan must look at.
const FILLER: &[u8] = b"CCOC(=O)N(C)C=CC#N";

/// `len` bytes of filler.
fn filler(len: usize) -> Vec<u8> {
    FILLER.iter().copied().cycle().take(len).collect()
}

/// Lines of up to 130 bytes that start a token at each byte offset
/// around the scan's 16- and 64-byte step edges: a ring digit, `%nn`,
/// bracket atoms, `Cl`, `Br`, the bare `se` trap and `[se]`, each
/// followed by a ring bond and filler, with every ring closed at the end
/// (or left open, or spelled with a bad `%`).
fn edge_lines() -> Vec<Vec<u8>> {
    const PIECES: [&[u8]; 10] = [
        b"1",
        b"%12",
        b"[13C@@H]",
        b"[nH]",
        b"Cl",
        b"Br",
        b"se",
        b"[se]",
        b"%1",
        b"[NH3+]",
    ];
    let mut lines = Vec::new();
    for offset in (13..=18).chain(29..=34).chain(61..=66) {
        for piece in PIECES {
            for tail in [0, 1, 15, 16, 17, 63] {
                for closed in [true, false] {
                    let mut line = filler(offset);
                    line.extend_from_slice(piece);
                    line.push(b'2');
                    line.extend(filler(tail));
                    if closed {
                        line.extend_from_slice(b"C2");
                        if piece == b"1" || piece == b"%12" {
                            line.extend_from_slice(piece);
                        }
                    }
                    line.truncate(130);
                    lines.push(line);
                }
            }
        }
    }
    lines
}

#[test]
fn tokens_across_step_edges_match_the_oracles() {
    let mut writers = Writers::default();
    let lines = edge_lines();
    for line in &lines {
        assert_scans_match_tokens(line);
        for first_id in FIRST_IDS {
            assert_processed_matches_oracle(line, first_id, &mut writers);
        }
    }
    assert!(writers.in_place > 0 && writers.spliced > 0, "{writers:?}");
    // The pieces reach every outcome: renumbered, an unclosed ring, a
    // lexical error.
    let mut seen = [0usize; 3];
    for line in &lines {
        seen[match oracle(line, RingRenumber::Innermost, 0) {
            Ok(_) => 0,
            Err(SmilesError::UnclosedRing { .. }) => 1,
            Err(_) => 2,
        }] += 1;
    }
    assert!(seen.iter().all(|&n| n > 0), "outcome counts {seen:?}");
}

/// `%nn` spellings and lines with ten or more rings open at once: the
/// splice runs where a spelling changes length, the in-place writer
/// everywhere else, and both match the oracle.
#[test]
fn percent_rings_and_ten_open_rings_take_both_writers() {
    let mut ten_open = b"C".to_vec();
    for id in 0..12u16 {
        Token::Ring {
            id,
            form: if id < 10 {
                RingForm::Digit
            } else {
                RingForm::Percent
            },
        }
        .write_to(&mut ten_open);
    }
    ten_open.extend_from_slice(b"CCCC");
    for id in (0..12u16).rev() {
        ten_open.push(b'C');
        Token::Ring {
            id,
            form: if id < 10 {
                RingForm::Digit
            } else {
                RingForm::Percent
            },
        }
        .write_to(&mut ten_open);
    }
    let lines: [&[u8]; 6] = [
        b"C%10CCCCC%10",
        b"C%12CCCC%12C1CC1",
        b"C%45CC%45C%46CC%46",
        b"C1CC2CCC2CC1",
        b"c1ccc2ccccc2c1",
        &ten_open,
    ];
    for first_id in FIRST_IDS {
        let mut writers = Writers::default();
        for line in lines {
            assert_processed_matches_oracle(line, first_id, &mut writers);
        }
        if first_id <= 1 {
            assert!(writers.in_place > 0 && writers.spliced > 0, "{writers:?}");
        }
    }
    // From 0, twelve nested rings take IDs up to 11: the splice writes
    // `%10` and `%11` over one-digit sites.
    let mut writers = Writers::default();
    let out = processed_counting(&ten_open, RingRenumber::Innermost, 0, &mut writers).unwrap();
    assert!(writers.spliced > 0 && writers.in_place == 0, "{writers:?}");
    assert!(out.windows(3).any(|w| w == b"%11"));
}
