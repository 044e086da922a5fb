//! Differential tests for the ring-only scan and the one-pass renumbering.
//!
//! `Lexer::next_ring` must yield exactly the ring tokens, spans and first
//! error of `Lexer::next_token` filtered to rings, and
//! `Preprocessor::process_into` must match the token-driven oracle below:
//! lex every token, pair the ring digits, color the intervals by an
//! explicit sort, and splice the edits back in position order.

use proptest::prelude::*;
use smiles::lexer::{Lexer, Spanned};
use smiles::preprocess::{Preprocessor, RingRenumber, MAX_RING_ID};
use smiles::token::{RingForm, Token};
use smiles::SmilesError;
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

fn rings_by_scan(line: &[u8]) -> Result<Vec<Spanned>, SmilesError> {
    let mut lexer = Lexer::new(line);
    let mut rings = Vec::new();
    while let Some(st) = lexer.next_ring()? {
        rings.push(st);
    }
    Ok(rings)
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
    /// One preprocessor for every case on a thread, as a compressor keeps
    /// one for every line: scratch left by a failed line must not leak
    /// into the next.
    static SHARED: RefCell<Preprocessor> = RefCell::new(Preprocessor::new());
}

fn processed(line: &[u8], strategy: RingRenumber, first_id: u16) -> Result<Vec<u8>, SmilesError> {
    let mut out = b"kept".to_vec();
    let got = SHARED.with(|pp| {
        pp.borrow_mut()
            .process_into(line, strategy, first_id, &mut out)
    });
    assert_eq!(&out[..4], b"kept", "existing output is never touched");
    got.map(|()| out[4..].to_vec())
        .inspect_err(|_| assert_eq!(out, b"kept", "nothing appended on error"))
}

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

/// First IDs around both ends of the range, so small pools exhaust.
fn arb_first_id() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..=1, 85u16..=101]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn next_ring_matches_filtered_next_token_on_bytes(
        line in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        prop_assert_eq!(rings_by_scan(&line), rings_by_token(&line));
    }

    #[test]
    fn next_ring_matches_filtered_next_token_on_alphabet_lines(line in arb_alphabet_line()) {
        prop_assert_eq!(rings_by_scan(&line), rings_by_token(&line));
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
