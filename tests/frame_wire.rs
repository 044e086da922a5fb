//! Wire frames as untrusted input: a seeded mutation fuzz of
//! `Request::decode` and `Response::decode` over one encoded frame of
//! every request and response variant (every `ErrorCode` too), and
//! `read_frame` reassembling frames from reads of random sizes.
//!
//! Each mutant body must decode or fail with a typed `Protocol` error,
//! never panic, and every body that decodes must re-encode to a frame
//! that decodes to the same value. Whatever count or length a mutation
//! writes, no single allocation made while decoding may be larger than
//! a small multiple of the body: a server decodes every client frame.
//!
//! A test binary of its own: the `#[global_allocator]` below records the
//! largest single allocation made on the thread that armed it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{ErrorKind, Read};
use std::panic::catch_unwind;

use proptest::test_runner::TestRng;
use zsmiles_core::serve::protocol::{read_frame, FrameRead, MAX_RESPONSE_FRAME};
use zsmiles_core::serve::{ErrorCode, HealthStats, HitRow, Request, Response, ServeStats};
use zsmiles_core::ZsmilesError;

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

/// The most a decode of `body` may reserve at once: room for a decoded
/// value several times the body's size (a 4-byte line length becomes a
/// 24-byte `Vec`, an invalid UTF-8 byte a 3-byte replacement character)
/// plus an error message.
fn alloc_cap(body: &[u8]) -> usize {
    8 * body.len() + 256
}

/// One of every request.
fn requests() -> Vec<Request> {
    vec![
        Request::Get { line: 7 },
        Request::GetRange {
            start: 3,
            end: 1 << 40,
        },
        Request::GetMany {
            lines: vec![0, 5, 5, u64::MAX],
        },
        Request::Stats,
        Request::Flip {
            path: "decks/next.zsm".into(),
        },
        Request::Shutdown,
        Request::Health,
        Request::TopHits {
            k: 25,
            pattern: "0xD0C5EED".into(),
        },
    ]
}

/// One of every response, and an error of every code.
fn responses() -> Vec<Response> {
    let mut out = vec![
        Response::Lines(vec![b"CCO".to_vec(), Vec::new(), b"c1ccccc1".to_vec()]),
        Response::Stats(ServeStats {
            generation: 3,
            lines: 80_000,
            shards: 8,
            requests: 12,
            flips: 1,
            active_connections: 2,
            retired_blocks: 5,
        }),
        Response::Flipped { generation: 4 },
        Response::Bye,
        Response::Health(HealthStats {
            ok: false,
            generation: 4,
            total_shards: 8,
            quarantined_shards: 1,
            unavailable_lines: 10_000,
        }),
        Response::Hits(vec![
            HitRow {
                index: 42,
                score_bits: 1.5f64.to_bits(),
                smiles: b"CC(=O)O".to_vec(),
            },
            HitRow {
                index: 7,
                score_bits: (-0.25f64).to_bits(),
                smiles: Vec::new(),
            },
        ]),
    ];
    for code in [
        ErrorCode::BadFrame,
        ErrorCode::OutOfRange,
        ErrorCode::FlipRejected,
        ErrorCode::Internal,
        ErrorCode::Busy,
        ErrorCode::Unavailable,
        ErrorCode::Unsupported,
    ] {
        out.push(Response::Error {
            code,
            message: format!("{code:?}: something went wrong"),
        });
    }
    out
}

/// A frame's body: what follows its 4-byte length prefix.
fn body(frame: &[u8]) -> Vec<u8> {
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - 4, "length prefix");
    frame[4..].to_vec()
}

fn u32_at(body: &[u8], at: usize) -> usize {
    u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize
}

/// Offsets of the `u32` count and length fields in a well-formed body.
fn count_fields(body: &[u8]) -> Vec<usize> {
    match body[0] {
        // GET_MANY count, FLIP path length.
        0x03 | 0x05 => vec![1],
        // TOP_HITS k and pattern length.
        0x08 => vec![1, 5],
        // LINES: the count, then each line's length.
        0x81 => {
            let mut fields = vec![1];
            let mut at = 5;
            for _ in 0..u32_at(body, 1) {
                fields.push(at);
                at += 4 + u32_at(body, at);
            }
            fields
        }
        // HITS: the count, then each row's line length after its index
        // and score.
        0x86 => {
            let mut fields = vec![1];
            let mut at = 5;
            for _ in 0..u32_at(body, 1) {
                fields.push(at + 16);
                at += 20 + u32_at(body, at + 16);
            }
            fields
        }
        // ERROR message length, after the code byte.
        0xFF => vec![2],
        _ => Vec::new(),
    }
}

/// Seeded byte mutations of one body: truncation at every offset, every
/// count and length field set to edge values, then bit flips, inserted
/// and deleted bytes at random offsets.
fn mutants(raw: &[u8], seed: u64, random: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = TestRng::from_seed(seed);
    let mut out = Vec::new();
    for cut in 0..raw.len() {
        out.push((format!("truncate at {cut}"), raw[..cut].to_vec()));
    }
    for at in count_fields(raw) {
        for v in [0, 1, 65_536, 65_537, u32::MAX] {
            let mut m = raw.to_vec();
            m[at..at + 4].copy_from_slice(&v.to_le_bytes());
            out.push((format!("u32 at {at} set to {v}"), m));
        }
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

/// Decode one mutant body as a request and as a response: no panic, only
/// `Protocol` errors, an accepted value round-trips, and no decode
/// reserves more than [`alloc_cap`]. Returns how many of the two
/// decodes accepted it.
fn check_mutant(what: &str, m: &[u8]) -> usize {
    let cap = alloc_cap(m);
    let (req, largest) = largest_alloc(|| catch_unwind(|| Request::decode(m)));
    let req = req.unwrap_or_else(|_| panic!("{what}: Request::decode panicked"));
    assert!(
        largest <= cap,
        "{what}: request decode reserved {largest} bytes"
    );
    let (resp, largest) = largest_alloc(|| catch_unwind(|| Response::decode(m)));
    let resp = resp.unwrap_or_else(|_| panic!("{what}: Response::decode panicked"));
    assert!(
        largest <= cap,
        "{what}: response decode reserved {largest} bytes"
    );

    let mut accepted = 0;
    match req {
        Ok(r) => {
            let again = Request::decode(&body(&r.encode()))
                .unwrap_or_else(|e| panic!("{what}: re-encoded request fails: {e}"));
            assert_eq!(again, r, "{what}: request round trip");
            accepted += 1;
        }
        Err(e) => assert!(
            matches!(e, ZsmilesError::Protocol { .. }),
            "{what}: request error is not Protocol: {e}"
        ),
    }
    match resp {
        Ok(r) => {
            let again = Response::decode(&body(&r.encode()))
                .unwrap_or_else(|e| panic!("{what}: re-encoded response fails: {e}"));
            assert_eq!(again, r, "{what}: response round trip");
            accepted += 1;
        }
        Err(e) => assert!(
            matches!(e, ZsmilesError::Protocol { .. }),
            "{what}: response error is not Protocol: {e}"
        ),
    }
    accepted
}

fn fuzz(frames: Vec<Vec<u8>>, seed: u64) {
    for (k, frame) in frames.iter().enumerate() {
        let raw = body(frame);
        assert_eq!(
            check_mutant(&format!("frame {k}"), &raw),
            1,
            "frame {k} decodes"
        );
        let (mut accepted, mut cases) = (0, 0);
        for (what, m) in mutants(&raw, seed + k as u64, 200) {
            cases += 1;
            accepted += (check_mutant(&format!("frame {k} (opcode {:#04x}): {what}", raw[0]), &m)
                > 0) as usize;
        }
        // The fuzz reaches past the opcode: some mutants decode, not all.
        assert!(
            0 < accepted && accepted < cases,
            "frame {k}: {accepted} of {cases} accepted"
        );
    }
}

#[test]
fn mutated_request_frames_decode_or_fail_as_protocol_errors() {
    fuzz(requests().iter().map(Request::encode).collect(), 0xF2A3E);
}

#[test]
fn mutated_response_frames_decode_or_fail_as_protocol_errors() {
    fuzz(responses().iter().map(Response::encode).collect(), 0x2E5F0);
}

/// Counts at the batch cap with almost no body behind them: each decode
/// fails on the short body, after reserving no more than the body holds.
#[test]
fn a_large_count_reserves_only_what_the_body_holds() {
    for (what, body) in [
        ("get_many", vec![0x03, 0x00, 0x00, 0x01, 0x00]),
        ("lines", vec![0x81, 0x00, 0x00, 0x01, 0x00]),
        ("hits", vec![0x86, 0x00, 0x00, 0x01, 0x00]),
    ] {
        let (req, req_largest) = largest_alloc(|| Request::decode(&body));
        let (resp, resp_largest) = largest_alloc(|| Response::decode(&body));
        assert!(
            req.is_err() && resp.is_err(),
            "{what}: a 5-byte body decodes"
        );
        let largest = req_largest.max(resp_largest);
        assert!(
            largest <= alloc_cap(&body),
            "{what}: reserved {largest} bytes for a {}-byte body",
            body.len()
        );
    }
}

/// A reader that hands out its bytes in seeded random-sized pieces and
/// is sometimes interrupted.
struct Choppy {
    data: Vec<u8>,
    at: usize,
    rng: TestRng,
}

impl Read for Choppy {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.below(8) == 0 {
            return Err(ErrorKind::Interrupted.into());
        }
        let n = (1 + self.rng.below(23) as usize)
            .min(buf.len())
            .min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[test]
fn read_frame_reassembles_frames_from_random_sized_reads() {
    let frames: Vec<Vec<u8>> = requests()
        .iter()
        .map(Request::encode)
        .chain(responses().iter().map(Response::encode))
        .collect();
    for seed in 0..16 {
        let mut reader = Choppy {
            data: frames.concat(),
            at: 0,
            rng: TestRng::from_seed(0xC0FFEE + seed),
        };
        let mut got = Vec::new();
        loop {
            match read_frame(&mut reader, MAX_RESPONSE_FRAME) {
                Ok(FrameRead::Frame(b)) => got.push(b),
                Ok(FrameRead::Eof) => break,
                Ok(FrameRead::TimedOut) => panic!("seed {seed}: timed out"),
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        let want: Vec<Vec<u8>> = frames.iter().map(|f| body(f)).collect();
        assert_eq!(got, want, "seed {seed}");
    }
}
