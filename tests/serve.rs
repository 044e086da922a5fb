//! The query service, end to end: wire-protocol framing survives
//! arbitrary payloads and refuses arbitrary garbage with typed errors
//! (never a panic or a hang), concurrent clients read byte-identical
//! lines to a direct read of the deck — a sharded `.zsm` or a bare `.zsa`
//! — and a live generation flip is atomic — every response equals a
//! direct read of *some* complete generation, and the retired
//! generation's blocks leave the cache.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::serve::protocol::{self, FrameRead, Request, Response};
use zsmiles_core::serve::{Executor, QueryClient, ServeOptions, Server};
use zsmiles_core::shard::ShardPolicy;
use zsmiles_core::{
    Archive, ArchiveReader, ArchiveSource, BlockCache, DeckOptions, DictBuilder, ShardedReader,
    ShardedWriter, WriterOptions, ZsmilesError,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zsmiles_it_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A dictionary trained on `deck`. Preprocess is off so reads are
/// byte-exact.
fn dict_for(deck: &molgen::Dataset) -> AnyDictionary {
    AnyDictionary::Base(Box::new(
        DictBuilder {
            min_count: 2,
            preprocess: false,
            ..Default::default()
        }
        .train(deck.iter())
        .unwrap(),
    ))
}

/// Pack `deck` into a bare `.zsa` at `dir/name`.
fn pack_single(dir: &Path, name: &str, deck: &molgen::Dataset) -> PathBuf {
    let path = dir.join(name);
    Archive::pack(dict_for(deck), deck.as_bytes(), 1)
        .save(&path)
        .unwrap();
    path
}

/// Pack `deck` into a sharded `.zsm` at `dir/name`, optionally stamping
/// a generation.
fn pack_deck(dir: &Path, name: &str, deck: &molgen::Dataset, generation: u64) -> PathBuf {
    let path = dir.join(name);
    let mut w = ShardedWriter::create(
        &path,
        dict_for(deck),
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
// Framing: round-trip under arbitrary payloads
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any request survives encode → frame-read → decode bit-exactly.
    #[test]
    fn request_framing_round_trips(
        line in any::<u64>(),
        start in any::<u64>(),
        end in any::<u64>(),
        many in proptest::collection::vec(any::<u64>(), 0..50),
        path_bytes in proptest::collection::vec(0x20u8..0x7f, 0..100),
    ) {
        let path = String::from_utf8(path_bytes).unwrap();
        let reqs = [
            Request::Get { line },
            Request::GetRange { start, end },
            Request::GetMany { lines: many },
            Request::Stats,
            Request::Flip { path },
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = req.encode();
            let mut cursor = std::io::Cursor::new(frame);
            let FrameRead::Frame(body) =
                protocol::read_frame(&mut cursor, protocol::MAX_REQUEST_FRAME).unwrap()
            else {
                panic!("frame expected");
            };
            prop_assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    /// Any lines response — arbitrary binary payloads included — survives
    /// the same trip.
    #[test]
    fn response_framing_round_trips(
        lines in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..30),
    ) {
        let resp = Response::Lines(lines);
        let frame = resp.encode();
        let mut cursor = std::io::Cursor::new(frame);
        let FrameRead::Frame(body) =
            protocol::read_frame(&mut cursor, protocol::MAX_RESPONSE_FRAME).unwrap()
        else {
            panic!("frame expected");
        };
        prop_assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    /// Arbitrary garbage bodies never panic the decoder: they either
    /// happen to parse or come back as a typed protocol error.
    #[test]
    fn decoder_survives_arbitrary_bodies(body in proptest::collection::vec(any::<u8>(), 0..300)) {
        match Request::decode(&body) {
            Ok(_) => {}
            Err(ZsmilesError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "non-protocol error: {other}"),
        }
        match Response::decode(&body) {
            Ok(_) => {}
            Err(ZsmilesError::Protocol { .. }) => {}
            Err(other) => prop_assert!(false, "non-protocol error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Hostile frames over real TCP: typed errors, never a panic or a hang
// ---------------------------------------------------------------------------

#[test]
fn hostile_frames_get_typed_errors_not_hangs() {
    let dir = tmpdir("hostile");
    let deck = molgen::Dataset::generate_mixed(100, 77);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr();

    let read_error_response = |stream: &mut TcpStream| {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        match protocol::read_frame(stream, protocol::MAX_RESPONSE_FRAME).unwrap() {
            FrameRead::Frame(body) => match Response::decode(&body).unwrap() {
                Response::Error { code, message } => (code, message),
                other => panic!("expected an error response, got {other:?}"),
            },
            other => panic!("expected an error frame, got {other:?}"),
        }
    };

    // Oversized frame: a hostile length prefix is refused up front.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        let (_, msg) = read_error_response(&mut s);
        assert!(msg.contains("oversized"), "got: {msg}");
        // And the server closed the connection afterwards.
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap_or(0), 0, "connection closed");
    }

    // Truncated frame: header promises 64 bytes, peer closes after 3.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let (_, msg) = read_error_response(&mut s);
        assert!(msg.contains("truncated"), "got: {msg}");
    }

    // Malformed body inside an intact frame: a typed error, and the
    // connection stays usable for a well-formed follow-up.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let junk = [0x6F, 0xDE, 0xAD, 0xBE, 0xEF]; // unknown opcode + noise
        s.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
        s.write_all(&junk).unwrap();
        let (_, msg) = read_error_response(&mut s);
        assert!(msg.contains("opcode"), "got: {msg}");
        s.write_all(&Request::Get { line: 0 }.encode()).unwrap();
        match protocol::read_frame(&mut s, protocol::MAX_RESPONSE_FRAME).unwrap() {
            FrameRead::Frame(body) => match Response::decode(&body).unwrap() {
                Response::Lines(lines) => assert_eq!(lines[0], deck.line(0)),
                other => panic!("connection unusable after bad body: {other:?}"),
            },
            other => panic!("connection unusable after bad body: {other:?}"),
        }
    }

    // Zero-length frame.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        let (_, msg) = read_error_response(&mut s);
        assert!(msg.contains("zero-length"), "got: {msg}");
    }

    // Out-of-range request: a typed error on a healthy connection.
    {
        let mut c = QueryClient::connect(addr).unwrap();
        let err = c.get(deck.len() as u64).unwrap_err();
        assert!(matches!(err, ZsmilesError::Protocol { .. }), "got: {err}");
        assert!(err.to_string().contains("out of range"), "got: {err}");
        // Still healthy:
        assert_eq!(c.get(3).unwrap(), deck.line(3));
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Concurrency: 8 clients, byte-identity against a direct read
// ---------------------------------------------------------------------------

/// The direct reads served answers must equal, byte for byte.
trait DirectRead: Sync {
    fn line(&self, i: usize) -> Vec<u8>;
    fn range(&self, lines: std::ops::Range<usize>) -> Vec<Vec<u8>>;
    fn many(&self, indices: &[usize]) -> Vec<Vec<u8>>;
}

impl DirectRead for ShardedReader {
    fn line(&self, i: usize) -> Vec<u8> {
        self.get(i).unwrap()
    }
    fn range(&self, lines: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        self.get_range(lines).unwrap()
    }
    fn many(&self, indices: &[usize]) -> Vec<Vec<u8>> {
        self.get_many(indices).unwrap()
    }
}

impl<S: ArchiveSource + Sync> DirectRead for ArchiveReader<S> {
    fn line(&self, i: usize) -> Vec<u8> {
        self.get(i).unwrap()
    }
    fn range(&self, lines: std::ops::Range<usize>) -> Vec<Vec<u8>> {
        self.get_range(lines).unwrap()
    }
    fn many(&self, indices: &[usize]) -> Vec<Vec<u8>> {
        self.get_many(indices).unwrap()
    }
}

#[test]
fn concurrent_clients_read_byte_identical_lines() {
    run_concurrent_byte_identity(Executor::Pooled, "concurrent_pooled");
}

#[test]
fn concurrent_clients_read_byte_identical_lines_threaded() {
    run_concurrent_byte_identity(Executor::Threaded, "concurrent_threaded");
}

/// 8 clients each walk a 500-line deck served at `addr` with `GET`,
/// `GET_RANGE` and `GET_MANY`, every answer equal to `direct`'s.
fn read_concurrently(addr: std::net::SocketAddr, direct: &dyn DirectRead) {
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            scope.spawn(move || {
                let mut c = QueryClient::connect(addr).unwrap();
                // A deterministic, worker-specific walk over the deck.
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(worker + 1);
                for _ in 0..60 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = x % 500;
                    assert_eq!(c.get(i).unwrap(), direct.line(i as usize));
                }
                // Batched surfaces agree too.
                assert_eq!(
                    c.get_range(worker * 10, worker * 10 + 25).unwrap(),
                    direct.range(worker as usize * 10..worker as usize * 10 + 25)
                );
                let picks = [0u64, 499, 64, 63, 250, worker];
                let idx: Vec<usize> = picks.iter().map(|&p| p as usize).collect();
                assert_eq!(c.get_many(&picks).unwrap(), direct.many(&idx));
            });
        }
    });
}

fn run_concurrent_byte_identity(executor: Executor, tag: &str) {
    let dir = tmpdir(tag);
    let deck = molgen::Dataset::generate_mixed(500, 123);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let direct = ShardedReader::open(&zsm).unwrap();
    let handle = Server::start(
        &zsm,
        "127.0.0.1:0",
        ServeOptions {
            executor,
            ..Default::default()
        },
    )
    .unwrap();
    read_concurrently(handle.addr(), &direct);
    let stats = handle.stats();
    assert_eq!(stats.generation, 0);
    assert_eq!(stats.lines, 500);
    assert!(stats.requests >= 8 * 62, "all requests counted");
    handle.shutdown();

    // A bare `.zsa` serves as a one-shard deck of generation 0, byte for
    // byte what `ArchiveReader` reads from the file. On a private cache,
    // a flip to a second bare `.zsa` serves generation 1 and retires the
    // first deck's blocks.
    let zsa_a = pack_single(&dir, "a.zsa", &deck);
    let zsa_b = pack_single(&dir, "b.zsa", &molgen::Dataset::generate_mixed(500, 124));
    let cache = Arc::new(BlockCache::new(4096, 4 << 20));
    let handle = Server::start(
        &zsa_a,
        "127.0.0.1:0",
        ServeOptions {
            executor,
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        },
    )
    .unwrap();
    read_concurrently(handle.addr(), &ArchiveReader::open(&zsa_a).unwrap());
    let mut c = QueryClient::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!((stats.generation, stats.lines, stats.shards), (0, 500, 1));
    let health = c.health().unwrap();
    assert!(health.ok, "{health:?}");
    assert_eq!(health.generation, 0);
    assert_eq!(health.total_shards, 1);
    assert_eq!(health.quarantined_shards, 0);
    assert_eq!(health.unavailable_lines, 0);
    assert_eq!(cache.stats().retired, 0);
    assert_eq!(c.flip(zsa_b.to_str().unwrap()).unwrap(), 1);
    let retired = cache.stats().retired;
    assert!(retired > 0, "the flip retired generation 0's blocks");
    assert_eq!(handle.stats().retired_blocks, retired);
    assert_eq!(c.health().unwrap().generation, 1);
    read_concurrently(handle.addr(), &ArchiveReader::open(&zsa_b).unwrap());
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Generation flips: atomic under concurrent load, cache retirement
// ---------------------------------------------------------------------------

/// The acceptance property: while a flip happens under concurrent reads,
/// every response is byte-identical to a direct read of generation A or
/// of generation B — never a torn mix, never a missing deck. Both decks
/// are then distinguishable per line, so a single byte comparison tells
/// which generation answered.
#[test]
fn generation_flip_is_atomic_under_concurrent_reads() {
    run_flip_atomicity(Executor::Pooled, "flip_pooled");
}

#[test]
fn generation_flip_is_atomic_under_concurrent_reads_threaded() {
    run_flip_atomicity(Executor::Threaded, "flip_threaded");
}

fn run_flip_atomicity(executor: Executor, tag: &str) {
    let dir = tmpdir(tag);
    let deck_a = molgen::Dataset::generate_mixed(300, 1);
    let deck_b = molgen::Dataset::generate_mixed(300, 2);
    let zsm_a = pack_deck(&dir, "a.zsm", &deck_a, 1);
    let zsm_b = pack_deck(&dir, "b.zsm", &deck_b, 2);
    let direct_a = ShardedReader::open(&zsm_a).unwrap();
    let direct_b = ShardedReader::open(&zsm_b).unwrap();

    let handle = Server::start(
        &zsm_a,
        "127.0.0.1:0",
        ServeOptions {
            executor,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    assert_eq!(handle.generation(), 1, "declared generation served");

    let flip_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            let (direct_a, direct_b, flip_done) = (&direct_a, &direct_b, &flip_done);
            scope.spawn(move || {
                let mut c = QueryClient::connect(addr).unwrap();
                let mut saw_b = false;
                for round in 0..200u64 {
                    let i = ((worker * 37 + round * 13) % 300) as usize;
                    let got = c.get(i as u64).unwrap();
                    let a = direct_a.get(i).unwrap();
                    let b = direct_b.get(i).unwrap();
                    assert!(
                        got == a || got == b,
                        "worker {worker} line {i}: torn response {:?}",
                        String::from_utf8_lossy(&got)
                    );
                    if got == b && a != b {
                        saw_b = true;
                    }
                    // Once the flip finished, only generation B may answer.
                    if flip_done.load(std::sync::atomic::Ordering::SeqCst) && a != b {
                        let after = c.get(i as u64).unwrap();
                        assert_eq!(after, b, "read after flip must be generation B");
                    }
                }
                saw_b
            });
        }
        // Flip mid-flight, from a separate client connection.
        scope.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            let mut c = QueryClient::connect(addr).unwrap();
            let g = c.flip(zsm_b.to_str().unwrap()).unwrap();
            assert_eq!(g, 2, "flip lands on the declared generation");
            flip_done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
    });

    let stats = handle.stats();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.flips, 1);

    // A stale flip — back to generation 1 — is rejected with a typed
    // error and the served deck is untouched.
    let mut c = QueryClient::connect(addr).unwrap();
    let err = c.flip(zsm_a.to_str().unwrap()).unwrap_err();
    assert!(err.to_string().contains("not newer"), "got: {err}");
    assert_eq!(handle.generation(), 2);
    // So is a flip to a nonexistent archive.
    assert!(c.flip(dir.join("nope.zsm").to_str().unwrap()).is_err());
    assert_eq!(handle.generation(), 2);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// With the server forced onto a private block cache, a flip retires the
/// old generation's blocks: the eviction-independent `retired` counter
/// rises and the server reports the count in its stats.
#[test]
fn flip_retires_old_generation_blocks_from_the_cache() {
    let dir = tmpdir("retire");
    let deck = molgen::Dataset::generate_mixed(400, 5);
    let zsm_a = pack_deck(&dir, "a.zsm", &deck, 1);
    let zsm_b = pack_deck(&dir, "b.zsm", &deck, 2);

    let cache = Arc::new(BlockCache::new(4096, 4 << 20));
    let handle = Server::start(
        &zsm_a,
        "127.0.0.1:0",
        ServeOptions {
            cache: Some(Arc::clone(&cache)),
            ..Default::default()
        },
    )
    .unwrap();

    // Touch the whole deck so generation 1 populates the cache.
    let mut c = QueryClient::connect(handle.addr()).unwrap();
    c.get_range(0, 400).unwrap();
    let resident_before = cache.stats().resident_blocks;
    assert!(resident_before > 0, "reads populated the private cache");
    assert_eq!(cache.stats().retired, 0);

    // Flip: the old generation drains (no in-flight readers here), and
    // its blocks are forgotten from the pool.
    assert_eq!(c.flip(zsm_b.to_str().unwrap()).unwrap(), 2);
    let retired = cache.stats().retired;
    assert!(
        retired > 0,
        "retirement forgot the old generation's blocks (retired {retired})"
    );
    assert_eq!(
        cache.stats().evictions,
        0,
        "retirement is not budget eviction"
    );
    assert_eq!(handle.stats().retired_blocks, retired);

    // The new generation still answers correctly from the same cache.
    assert_eq!(
        c.get(7).unwrap(),
        ShardedReader::open_with(
            &zsm_b,
            &DeckOptions {
                cache: Some(Arc::clone(&cache))
            }
        )
        .unwrap()
        .get(7)
        .unwrap()
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire shutdown request stops the server; `wait()` returns.
#[test]
fn wire_shutdown_stops_the_server() {
    let dir = tmpdir("shutdown");
    let deck = molgen::Dataset::generate_mixed(50, 9);
    let zsm = pack_deck(&dir, "deck.zsm", &deck, 0);
    let handle = Server::start(&zsm, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr();

    let mut c = QueryClient::connect(addr).unwrap();
    assert_eq!(c.get(0).unwrap(), deck.line(0));
    c.shutdown().unwrap();
    handle.wait(); // returns because the wire request stopped the server

    // New connections are refused (or reset) once the listener is gone.
    assert!(QueryClient::connect(addr)
        .and_then(|mut c| c.get(0))
        .is_err());
    std::fs::remove_dir_all(&dir).ok();
}
