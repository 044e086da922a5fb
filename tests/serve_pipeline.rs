//! The pipelined serving path, end to end: pipelined responses
//! byte-match sequential ones at every depth, hostile frames injected
//! mid-pipeline get typed errors while surviving requests keep their
//! order, a 256-client pipelined stress stays flip-atomic under the
//! pooled executor, `top_hits` over the wire is byte-identical to a
//! local screening campaign, a `GET` is never held behind a sweep the
//! same worker claimed, NaN scores rank last without taking a worker
//! down, and a saturated server still answers its `health` probe.

use proptest::prelude::*;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::serve::protocol::{self, ErrorCode, FrameRead, Request, Response};
use zsmiles_core::serve::{ClientOptions, Executor, QueryClient, Screener, ServeOptions, Server};
use zsmiles_core::shard::ShardPolicy;
use zsmiles_core::{DictBuilder, ShardedReader, ShardedWriter, WriterOptions, ZsmilesError};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_it_pipe_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pack `deck` into a sharded `.zsm`, preprocess off so reads are
/// byte-exact.
fn pack_deck(dir: &Path, name: &str, deck: &molgen::Dataset, generation: u64) -> PathBuf {
    let dict = AnyDictionary::Base(Box::new(
        DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(deck.iter())
        .unwrap(),
    ));
    let path = dir.join(name);
    let mut w = ShardedWriter::create(
        &path,
        dict,
        ShardPolicy::by_lines(64),
        WriterOptions::default(),
    )
    .unwrap();
    w.set_generation(generation);
    w.write(deck.as_bytes()).unwrap();
    w.finish().unwrap();
    path
}

// ---------------------------------------------------------------------------
// Pipelined == sequential, proptest over depths 1/4/32
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any mix of line fetches answered through the pipeline at depths
    /// 1, 4 and 32 byte-matches the strictly sequential path — in-order
    /// delivery is the protocol's contract, not a scheduling accident.
    #[test]
    fn pipelined_responses_match_sequential(
        lines in proptest::collection::vec(0u64..200, 1..120),
        seed in any::<u64>(),
    ) {
        let dir = tmpdir(&format!("prop_{seed:x}_{}", lines.len()));
        let deck = molgen::Dataset::generate_mixed(200, 31);
        let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
        let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();

        let mut seq = QueryClient::connect(handle.addr()).unwrap();
        let want: Vec<Vec<u8>> = lines
            .iter()
            .map(|&l| seq.get(l).unwrap())
            .collect();
        for depth in [1usize, 4, 32] {
            let mut piped = QueryClient::connect(handle.addr()).unwrap();
            let got = piped.get_many_pipelined(&lines, depth).unwrap();
            prop_assert_eq!(&got, &want, "depth {}", depth);
        }

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Hostile frames mid-pipeline: typed errors, survivors stay ordered
// ---------------------------------------------------------------------------

/// A pipelined burst with a malformed body in the middle: every frame
/// before and after the bad one is answered, in submission order, and
/// the bad one gets its typed error *in its own slot*.
#[test]
fn bad_body_mid_pipeline_errors_in_place_and_preserves_order() {
    let dir = tmpdir("midpipe_badbody");
    let deck = molgen::Dataset::generate_mixed(100, 7);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();

    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // One write, five frames: get 0, get 1, junk opcode, get 2, get 3.
    let mut burst = Vec::new();
    burst.extend_from_slice(&Request::Get { line: 0 }.encode());
    burst.extend_from_slice(&Request::Get { line: 1 }.encode());
    let junk = [0x6Fu8, 0xDE, 0xAD];
    burst.extend_from_slice(&(junk.len() as u32).to_le_bytes());
    burst.extend_from_slice(&junk);
    burst.extend_from_slice(&Request::Get { line: 2 }.encode());
    burst.extend_from_slice(&Request::Get { line: 3 }.encode());
    s.write_all(&burst).unwrap();

    let mut read =
        |_slot: usize| match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME).unwrap() {
            FrameRead::Frame(body) => Response::decode(&body).unwrap(),
            other => panic!("expected a frame, got {other:?}"),
        };
    for slot in [0usize, 1] {
        assert_eq!(read(slot), Response::Lines(vec![deck.line(slot).to_vec()]));
    }
    match read(2) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("opcode"), "got: {message}");
        }
        other => panic!("slot 2 should be the typed error, got {other:?}"),
    }
    // The connection survived a bad *body*: the tail still answers.
    for slot in [2usize, 3] {
        assert_eq!(
            read(slot + 1),
            Response::Lines(vec![deck.line(slot).to_vec()])
        );
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An oversized length prefix mid-pipeline loses the frame boundary:
/// every request *before* it is answered in order, the poisoned slot
/// gets the typed oversized error, and the connection then closes —
/// frames after the poison are never guessed at.
#[test]
fn oversized_frame_mid_pipeline_answers_predecessors_then_closes() {
    let dir = tmpdir("midpipe_oversized");
    let deck = molgen::Dataset::generate_mixed(100, 8);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();

    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut burst = Vec::new();
    burst.extend_from_slice(&Request::Get { line: 5 }.encode());
    burst.extend_from_slice(&Request::Get { line: 6 }.encode());
    burst.extend_from_slice(&u32::MAX.to_le_bytes()); // poison
    burst.extend_from_slice(&Request::Get { line: 7 }.encode()); // never read
    s.write_all(&burst).unwrap();

    let mut read = || match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME).unwrap() {
        FrameRead::Frame(body) => Response::decode(&body).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    };
    assert_eq!(read(), Response::Lines(vec![deck.line(5).to_vec()]));
    assert_eq!(read(), Response::Lines(vec![deck.line(6).to_vec()]));
    match read() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("oversized"), "got: {message}");
        }
        other => panic!("expected the oversized error, got {other:?}"),
    }
    // Nothing for the post-poison frame; the server closes instead.
    match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME).unwrap() {
        FrameRead::Eof => {}
        other => panic!("connection should be closed after boundary loss, got {other:?}"),
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A frame truncated by a half-close mid-pipeline: completed requests
/// all answer first, then the truncation error closes the stream.
#[test]
fn truncated_tail_mid_pipeline_answers_completed_requests_first() {
    let dir = tmpdir("midpipe_trunc");
    let deck = molgen::Dataset::generate_mixed(100, 9);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();

    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut burst = Vec::new();
    burst.extend_from_slice(&Request::Get { line: 9 }.encode());
    burst.extend_from_slice(&64u32.to_le_bytes());
    burst.extend_from_slice(&[1, 2, 3]); // 3 of 64 promised bytes
    s.write_all(&burst).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();

    let mut read = || match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME).unwrap() {
        FrameRead::Frame(body) => Response::decode(&body).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    };
    assert_eq!(read(), Response::Lines(vec![deck.line(9).to_vec()]));
    match read() {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("truncated"), "got: {message}");
        }
        other => panic!("expected the truncated error, got {other:?}"),
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 256 pipelined clients, flip mid-load, pooled executor
// ---------------------------------------------------------------------------

/// The acceptance stress: 256 concurrent pipelined clients under the
/// pooled executor while a generation flip lands mid-load. Every
/// response must byte-match generation A or generation B of its line —
/// never a torn mix — and after the flip settles only B answers.
#[test]
fn flip_stays_atomic_under_256_pipelined_clients() {
    let dir = tmpdir("stress256");
    let deck_a = molgen::Dataset::generate_mixed(300, 11);
    let deck_b = molgen::Dataset::generate_mixed(300, 12);
    let zsm_a = pack_deck(&dir, "a.zsm", &deck_a, 1);
    let zsm_b = pack_deck(&dir, "b.zsm", &deck_b, 2);
    let direct_a = ShardedReader::open(&zsm_a).unwrap();
    let direct_b = ShardedReader::open(&zsm_b).unwrap();

    let handle = Server::start(
        &zsm_a,
        "127.0.0.1:0",
        ServeOptions {
            executor: Executor::Pooled,
            max_connections: 300,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let opts = ClientOptions {
        connect_timeout: Some(Duration::from_secs(10)),
        read_timeout: Some(Duration::from_secs(30)),
        retries: 3,
        backoff: Duration::from_millis(10),
    };

    std::thread::scope(|scope| {
        for worker in 0..256u64 {
            let (direct_a, direct_b, opts) = (&direct_a, &direct_b, &opts);
            scope.spawn(move || {
                let mut c = QueryClient::connect_with(addr, opts).unwrap();
                // Deterministic per-worker walk, fetched pipelined.
                let lines: Vec<u64> = (0..24).map(|r| (worker * 37 + r * 13) % 300).collect();
                let got = c.get_many_pipelined(&lines, 8).unwrap();
                for (&i, bytes) in lines.iter().zip(&got) {
                    let a = direct_a.get(i as usize).unwrap();
                    let b = direct_b.get(i as usize).unwrap();
                    assert!(
                        *bytes == a || *bytes == b,
                        "worker {worker} line {i}: torn response"
                    );
                }
            });
        }
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            let mut c = QueryClient::connect_with(addr, &opts).unwrap();
            assert_eq!(c.flip(zsm_b.to_str().unwrap()).unwrap(), 2);
        });
    });

    // Settled: generation 2 serves everywhere.
    assert_eq!(handle.stats().generation, 2);
    assert_eq!(handle.stats().flips, 1);
    let mut c = QueryClient::connect(addr).unwrap();
    for i in [0u64, 150, 299] {
        assert_eq!(c.get(i).unwrap(), direct_b.get(i as usize).unwrap());
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// TOP_HITS over the wire == local campaign, byte for byte
// ---------------------------------------------------------------------------

/// The screening-over-the-wire residual: a wire `top_hits` with the
/// vscreen screener installed returns exactly what a local campaign
/// (screen → `ScoreTable::top_k` → `top_hits_cold`) produces over the
/// same deck — same lines, same order, same score *bits*.
#[test]
fn wire_top_hits_is_byte_identical_to_local_campaign() {
    let dir = tmpdir("tophits");
    let deck = molgen::Dataset::generate_mixed(400, 21);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let seed = 0xD0C5EEDu64;

    // Local campaign over the same on-disk deck.
    let pocket = vscreen::Pocket::from_seed(seed);
    let scores = vscreen::screen(&deck, &pocket);
    let cold = vscreen::ColdArchive::open(&zsm).unwrap();
    let local = vscreen::top_hits_cold(&cold, &scores, 25).unwrap();

    for executor in [Executor::Pooled, Executor::Threaded] {
        let handle = Server::start(
            &zsm,
            "127.0.0.1:0",
            ServeOptions {
                executor,
                screener: Some(Arc::new(vscreen::PocketScreener)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut c = QueryClient::connect(handle.addr()).unwrap();
        let wire = c.top_hits(25, &seed.to_string()).unwrap();

        assert_eq!(wire.len(), local.len(), "{executor:?}");
        for (w, l) in wire.iter().zip(&local) {
            assert_eq!(w.index as usize, l.index, "{executor:?}");
            assert_eq!(w.score_bits, l.score.to_bits(), "{executor:?}");
            assert_eq!(w.smiles, l.smiles, "{executor:?}");
        }

        // k past the deck clamps exactly like the local campaign.
        assert_eq!(
            c.top_hits(10_000, &seed.to_string()).unwrap().len(),
            deck.len()
        );
        // A pattern that is not a seed is a typed error, not a hang.
        let err = c.top_hits(5, "not a seed").unwrap_err();
        assert!(err.to_string().contains("pocket seed"), "got: {err}");
        handle.shutdown();
    }

    // Without a screener installed, top_hits is a typed Unsupported.
    let bare = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut c = QueryClient::connect(bare.addr()).unwrap();
    let err = c.top_hits(5, &seed.to_string()).unwrap_err();
    assert!(err.to_string().contains("Unsupported"), "got: {err}");
    bare.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// A sweep does not hold up the GETs claimed with it
// ---------------------------------------------------------------------------

/// A screener whose sweep cannot finish until the test lets it: every
/// `score_batch` waits for the release message (or for the sender to be
/// dropped) and scores each line by its length.
struct GatedScreener {
    release: Mutex<Receiver<()>>,
}

impl Screener for GatedScreener {
    fn score_batch(
        &self,
        _pattern: &str,
        lines: &[Vec<u8>],
        out: &mut Vec<f64>,
    ) -> Result<(), ZsmilesError> {
        let gate = self.release.lock().unwrap();
        match gate.recv_timeout(Duration::from_secs(30)) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => {
                return Err(ZsmilesError::Protocol {
                    reason: "sweep was never released".into(),
                })
            }
        }
        out.extend(lines.iter().map(|l| l.len() as f64));
        Ok(())
    }
}

/// A `GET` and a `TOP_HITS` pipelined in one write reach the two-worker
/// pool as one push, so a single worker claims both. The sweep blocks
/// until the test has read the `GET`'s answer: the worker must publish
/// that answer before the sweep starts, or the read times out.
#[test]
fn get_is_answered_before_a_sweep_claimed_in_the_same_batch_ends() {
    let dir = tmpdir("sweep_batch");
    let deck = molgen::Dataset::generate_mixed(120, 5);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let (release, gate) = mpsc::channel();
    let handle = Server::start(
        &zsm,
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            screener: Some(Arc::new(GatedScreener {
                release: Mutex::new(gate),
            })),
            ..Default::default()
        },
    )
    .unwrap();

    let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut burst = Request::Get { line: 7 }.encode();
    burst.extend_from_slice(
        &Request::TopHits {
            k: 3,
            pattern: "any".into(),
        }
        .encode(),
    );
    s.write_all(&burst).unwrap();

    let mut read = || match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME) {
        Ok(FrameRead::Frame(body)) => Response::decode(&body).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    };
    assert_eq!(read(), Response::Lines(vec![deck.line(7).to_vec()]));
    release.send(()).unwrap();
    drop(release);
    match read() {
        Response::Hits(rows) => {
            let indices: Vec<u64> = rows.iter().map(|r| r.index).collect();
            let mut want: Vec<usize> = (0..deck.len()).collect();
            want.sort_by_key(|&i| (std::cmp::Reverse(deck.line(i).len()), i));
            let want: Vec<u64> = want[..3].iter().map(|&i| i as u64).collect();
            assert_eq!(indices, want);
        }
        other => panic!("expected hits, got {other:?}"),
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// NaN scores: a total order, and the worker survives
// ---------------------------------------------------------------------------

/// Scores line `i` of a batch NaN when `i % 7 == 0`, else
/// `(i * 7919) % 1000`. The decks below fit in one batch, so `i` is the
/// deck line.
struct NanScreener;

impl Screener for NanScreener {
    fn score_batch(
        &self,
        _pattern: &str,
        lines: &[Vec<u8>],
        out: &mut Vec<f64>,
    ) -> Result<(), ZsmilesError> {
        out.extend((0..lines.len()).map(|i| {
            if i % 7 == 0 {
                f64::NAN
            } else {
                ((i * 7919) % 1000) as f64
            }
        }));
        Ok(())
    }
}

/// A screener that returns NaN must not take a worker down: `TOP_HITS`
/// answers k rows ranked with NaN below every number and ties toward
/// the smaller line, and a `GET` pipelined behind it is answered. A
/// comparison sort that is not a total order panicked here, and the
/// client then waited forever — so every read has a timeout.
#[test]
fn nan_scores_rank_last_and_the_get_behind_them_is_answered() {
    let dir = tmpdir("nan_scores");
    let deck = molgen::Dataset::generate_mixed(120, 9);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let n = deck.len();
    let mut numbers: Vec<usize> = (0..n).filter(|i| i % 7 != 0).collect();
    numbers.sort_by_key(|&i| (std::cmp::Reverse((i * 7919) % 1000), i));
    let nans: Vec<usize> = (0..n).step_by(7).collect();

    for executor in [Executor::Pooled, Executor::Threaded] {
        let handle = Server::start(
            &zsm,
            "127.0.0.1:0",
            ServeOptions {
                executor,
                screener: Some(Arc::new(NanScreener)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut burst = Vec::new();
        for k in [5, n as u32] {
            burst.extend_from_slice(
                &Request::TopHits {
                    k,
                    pattern: "any".into(),
                }
                .encode(),
            );
        }
        burst.extend_from_slice(&Request::Get { line: 7 }.encode());
        s.write_all(&burst).unwrap();

        let mut read = || match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME) {
            Ok(FrameRead::Frame(body)) => Response::decode(&body).unwrap(),
            other => panic!("{executor:?}: expected a response frame, got {other:?}"),
        };
        let indices = |resp: Response| match resp {
            Response::Hits(rows) => {
                for r in &rows {
                    assert_eq!(
                        f64::from_bits(r.score_bits).is_nan(),
                        r.index % 7 == 0,
                        "{executor:?}: line {}",
                        r.index
                    );
                    assert_eq!(r.smiles, deck.line(r.index as usize), "{executor:?}");
                }
                rows.iter().map(|r| r.index as usize).collect::<Vec<_>>()
            }
            other => panic!("{executor:?}: expected hits, got {other:?}"),
        };
        assert_eq!(indices(read()), numbers[..5], "{executor:?}");
        let all = indices(read());
        assert_eq!(all[..numbers.len()], numbers[..], "{executor:?}");
        assert_eq!(all[numbers.len()..], nans[..], "{executor:?}");
        assert_eq!(read(), Response::Lines(vec![deck.line(7).to_vec()]));
        handle.shutdown();
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Over-cap HEALTH: a saturated server must not look dead
// ---------------------------------------------------------------------------

/// At the connection cap, a `health` probe is still answered (the
/// readiness-probe fix) while any other request over the cap gets the
/// typed `Busy` — under both executors.
#[test]
fn health_is_answered_even_at_the_connection_cap() {
    let dir = tmpdir("overcap");
    let deck = molgen::Dataset::generate_mixed(60, 3);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);

    for executor in [Executor::Pooled, Executor::Threaded] {
        let handle = Server::start(
            &zsm,
            "127.0.0.1:0",
            ServeOptions {
                executor,
                max_connections: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.addr();

        // Occupy the single slot with a live connection.
        let mut occupant = QueryClient::connect(addr).unwrap();
        assert_eq!(occupant.get(0).unwrap(), deck.line(0));

        // Over the cap: health still answers...
        let mut probe = QueryClient::connect_with(
            addr,
            &ClientOptions {
                read_timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            },
        )
        .unwrap();
        let h = probe.health().unwrap();
        assert!(h.ok, "{executor:?}: health answered at the cap");

        // ...while a data request over the cap is the typed Busy.
        let mut hungry = QueryClient::connect_with(
            addr,
            &ClientOptions {
                read_timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            },
        )
        .unwrap();
        let err = hungry.get(0).unwrap_err();
        assert!(err.to_string().contains("Busy"), "{executor:?}: got {err}");

        // The occupant is unaffected throughout.
        assert_eq!(occupant.get(1).unwrap(), deck.line(1));
        handle.shutdown();
    }

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Multi-worker pool: cross-thread completions stay ordered
// ---------------------------------------------------------------------------

/// An explicit 2-worker pool forces the cross-thread handoff path even
/// on one-CPU machines (where the default single-worker pool answers
/// bounded reads inline on the loop thread): pipelined responses still
/// arrive in submission order and byte-match sequential reads, and a
/// screenerless `TOP_HITS` comes back through the pool as a typed
/// `Unsupported` error, not a hang.
#[test]
fn two_worker_pool_preserves_order_and_bytes() {
    let dir = tmpdir("pool2");
    let deck = molgen::Dataset::generate_mixed(300, 77);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(
        &zsm,
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();

    let mut seq = QueryClient::connect(handle.addr()).unwrap();
    let lines: Vec<u64> = (0..300u64).map(|i| (i * 7919) % 300).collect();
    let want: Vec<Vec<u8>> = lines.iter().map(|&l| seq.get(l).unwrap()).collect();
    let mut piped = QueryClient::connect(handle.addr()).unwrap();
    let got = piped.get_many_pipelined(&lines, 16).unwrap();
    assert_eq!(got, want);

    let err = piped.top_hits(3, "0x1").unwrap_err();
    assert!(err.to_string().contains("screener"), "got {err}");
    // The connection survives the unsupported request.
    assert_eq!(piped.get(0).unwrap(), deck.line(0));

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
