//! The serving process: request execution, generation snapshots, and the
//! two executors that drive connections.
//!
//! Concurrency model: the current deck lives behind
//! `RwLock<Arc<Generation>>`. Every request clones the `Arc` (a read
//! lock held for nanoseconds) and answers entirely from that snapshot,
//! so a flip mid-request is invisible — the request drains on the
//! generation it started with. The flip itself opens and validates the
//! *new* deck before taking the write lock, so the swap is one pointer
//! exchange and no request ever observes a half-open deck. When the last
//! snapshot of a retired generation drops, its `Drop` impl forgets the
//! deck's blocks from the block cache and adds the count to the server's
//! `retired_blocks` stat.
//!
//! Two executors share all of that:
//!
//! * [`Executor::Pooled`] (the default on 64-bit Unix) — the
//!   readiness-driven event loop in [`super::event`]: one `poll(2)`
//!   thread owns every socket, decoded requests run on a small fixed
//!   worker pool, and connections are *pipelined* (many requests in
//!   flight per connection, responses strictly in submission order).
//! * [`Executor::Threaded`] — the original thread-per-connection loop,
//!   kept selectable so the two models stay comparable under the same
//!   bench harness.

use super::protocol::{
    read_frame, ErrorCode, FrameRead, HealthStats, HitRow, Request, Response, ServeStats,
    MAX_BATCH_LINES, MAX_REQUEST_FRAME,
};
use crate::cache::BlockCache;
use crate::error::ZsmilesError;
use crate::shard::{DeckOptions, DeckReader};
use crate::topk::TopK;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often an idle threaded connection wakes to check the shutdown
/// flag. The pooled executor has no tick — it sleeps in `poll(2)` until
/// a socket or its wakeup pipe turns readable.
pub(super) const POLL_TICK: Duration = Duration::from_millis(100);

/// How long shutdown waits for in-flight connections to drain.
pub(super) const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// How long an over-cap connection gets to present its one frame before
/// the server gives up and answers `Busy`.
pub(super) const OVERCAP_DEADLINE: Duration = Duration::from_secs(2);

/// Most simultaneous over-cap probe threads the threaded executor will
/// run; beyond this, over-cap connects get the old unread `Busy`.
const OVERCAP_THREADS: u32 = 16;

/// Lines scored per `get_range` batch during a server-side `top_hits`
/// sweep — bounds the decoded-lines working set of a screening request.
const SCREEN_BATCH: usize = 4096;

/// Which connection-driving model a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Readiness-driven event loop + fixed worker pool (pipelined
    /// connections, batched dispatch). Falls back to [`Executor::Threaded`]
    /// on platforms without the `poll(2)` binding.
    #[default]
    Pooled,
    /// One OS thread per connection, one request in flight at a time —
    /// the PR 7 model, kept selectable for comparison.
    Threaded,
}

/// Scores deck lines against a screening pattern, server-side.
///
/// The serving core cannot depend on the screening crate (the dependency
/// points the other way), so `top_hits` execution is pluggable: the CLI
/// installs a `vscreen`-backed screener, tests install toy ones. The
/// contract that makes wire results byte-identical to a local campaign:
/// the same `(pattern, line)` must produce the same `f64` bits here as
/// in the local scorer.
///
/// The server ranks the scores with [`crate::topk`]: higher first; NaN
/// below every number, −∞ included; equal scores (±0 included) and NaNs
/// toward the smaller line.
pub trait Screener: Send + Sync {
    /// Append one score per line of `lines` (in order) to `out`. A
    /// malformed `pattern` should come back as
    /// [`ZsmilesError::Protocol`], which the server maps to a typed
    /// `BadFrame` wire error.
    fn score_batch(
        &self,
        pattern: &str,
        lines: &[Vec<u8>],
        out: &mut Vec<f64>,
    ) -> Result<(), ZsmilesError>;
}

/// Serving knobs. `Default` is the pooled executor with `min(cores, 8)`
/// workers, a 64-connection cap, 64 requests in flight per connection,
/// the protocol's 1 MiB request-frame cap, and the platform-default read
/// path per file.
#[derive(Clone)]
pub struct ServeOptions {
    /// Most simultaneous connections; excess connects are answered with
    /// a typed `Busy` error and closed — after one frame's grace so a
    /// `health` probe is still answered (a saturated server must not
    /// look dead to its orchestrator).
    pub max_connections: usize,
    /// Largest request frame accepted (bytes).
    pub max_request_frame: usize,
    /// Force every deck file through cached positioned I/O on this
    /// cache (instead of mmap-or-cache per platform). Generation
    /// retirement then deterministically releases blocks here — tests
    /// and cache-budget-conscious deployments use this.
    pub cache: Option<Arc<BlockCache>>,
    /// Open decks in degraded mode: shards that fail their integrity
    /// cross-checks are quarantined instead of failing the open, the
    /// rest of the deck serves, and the `health` probe reports
    /// `degraded`. Applies to the initial open *and* every flip.
    pub degraded: bool,
    /// Connection-driving model; see [`Executor`].
    pub executor: Executor,
    /// Worker threads for the pooled executor (`0` = `min(cores, 8)`).
    /// Ignored by the threaded executor.
    pub workers: usize,
    /// Most requests the pooled executor keeps in flight per connection
    /// before it stops reading that socket (backpressure, not an
    /// error). Ignored by the threaded executor, which is strictly
    /// one-at-a-time anyway.
    pub pipeline_depth: usize,
    /// Server-side screening hook for `top_hits` requests; without one
    /// they are answered with a typed `Unsupported` error.
    pub screener: Option<Arc<dyn Screener>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("max_connections", &self.max_connections)
            .field("max_request_frame", &self.max_request_frame)
            .field("cache", &self.cache.is_some())
            .field("degraded", &self.degraded)
            .field("executor", &self.executor)
            .field("workers", &self.workers)
            .field("pipeline_depth", &self.pipeline_depth)
            .field("screener", &self.screener.is_some())
            .finish()
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_connections: 64,
            max_request_frame: MAX_REQUEST_FRAME,
            cache: None,
            degraded: false,
            executor: Executor::default(),
            workers: 0,
            pipeline_depth: 64,
            screener: None,
        }
    }
}

/// The pooled executor's default worker count: enough to keep a handful
/// of cores busy, never a thread herd.
pub(super) fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// One dataset generation: an open deck plus its generation number.
/// Dropping the last reference retires the deck's cached blocks and
/// reports how many into the server's `retired_blocks` counter.
pub(super) struct Generation {
    pub(super) number: u64,
    pub(super) deck: DeckReader,
    retired_sink: Arc<AtomicU64>,
}

impl Drop for Generation {
    fn drop(&mut self) {
        let n = self.deck.retire_cached_blocks();
        if n > 0 {
            self.retired_sink.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Everything a connection needs to answer requests, shared between the
/// accept/event machinery, the workers, and the [`ServeHandle`].
pub(super) struct Shared {
    current: RwLock<Arc<Generation>>,
    deck_options: DeckOptions,
    degraded_opens: bool,
    pub(super) max_connections: usize,
    pub(super) max_request_frame: usize,
    pub(super) pipeline_depth: usize,
    screener: Option<Arc<dyn Screener>>,
    pub(super) requests: AtomicU64,
    flips: AtomicU64,
    pub(super) active: AtomicU32,
    overcap_threads: AtomicU32,
    retired_blocks: Arc<AtomicU64>,
    pub(super) shutdown: AtomicBool,
    /// How the executor is kicked out of its blocking wait when
    /// `begin_shutdown` runs: the event loop registers a wakeup-pipe
    /// write, the threaded accept loop a self-connect.
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Shared {
    pub(super) fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    pub(super) fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let waker = self.waker.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(wake) = waker.as_ref() {
                wake();
            }
        }
    }

    pub(super) fn set_waker(&self, wake: Box<dyn Fn() + Send + Sync>) {
        *self.waker.lock().unwrap_or_else(PoisonError::into_inner) = Some(wake);
    }

    /// Atomically replace the served deck with the archive at `path`.
    /// The new deck opens (and is fully validated) before the write lock
    /// is taken; the swap is one pointer exchange. Returns the
    /// generation now being served.
    fn do_flip(&self, path: &Path) -> Result<u64, ZsmilesError> {
        let deck = open_deck(path, &self.deck_options, self.degraded_opens)?;
        let declared = deck.generation();
        let mut cur = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let next = if declared == 0 {
            cur.number + 1
        } else if declared > cur.number {
            declared
        } else {
            return Err(ZsmilesError::Protocol {
                reason: format!(
                    "flip rejected: archive declares generation {declared}, \
                     not newer than current generation {}",
                    cur.number
                ),
            });
        };
        let old = std::mem::replace(
            &mut *cur,
            Arc::new(Generation {
                number: next,
                deck,
                retired_sink: Arc::clone(&self.retired_blocks),
            }),
        );
        drop(cur);
        // In-flight requests may still hold snapshots of `old`; the last
        // one out runs Generation::drop and retires the cached blocks.
        drop(old);
        self.flips.fetch_add(1, Ordering::Relaxed);
        Ok(next)
    }

    fn stats_snapshot(&self) -> ServeStats {
        let gen = self.snapshot();
        ServeStats {
            generation: gen.number,
            lines: gen.deck.len() as u64,
            shards: gen.deck.shard_count() as u32,
            requests: self.requests.load(Ordering::Relaxed),
            flips: self.flips.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            retired_blocks: self.retired_blocks.load(Ordering::Relaxed),
        }
    }

    pub(super) fn health_snapshot(&self) -> HealthStats {
        let gen = self.snapshot();
        let quarantined = gen.deck.quarantined().len() as u32;
        HealthStats {
            ok: quarantined == 0,
            generation: gen.number,
            total_shards: gen.deck.shard_count() as u32,
            quarantined_shards: quarantined,
            unavailable_lines: gen.deck.unavailable_lines(),
        }
    }

    /// Run a screening campaign over one generation snapshot: score the
    /// deck in bounded batches, keep the best `k` as the local campaign
    /// ranks them ([`crate::topk`]), then fetch only the winners. A sweep
    /// holds `k` ranked lines and one batch, never a score per line.
    fn answer_top_hits(&self, gen: &Generation, k: usize, pattern: &str) -> Response {
        let Some(screener) = self.screener.as_ref() else {
            return Response::Error {
                code: ErrorCode::Unsupported,
                message: "server has no screener configured for top_hits".into(),
            };
        };
        let len = gen.deck.len();
        let mut best = TopK::new(k);
        let mut scores: Vec<f64> = Vec::with_capacity(SCREEN_BATCH.min(len));
        let mut start = 0;
        while start < len {
            let end = (start + SCREEN_BATCH).min(len);
            let lines = match gen.deck.get_range(start..end) {
                Ok(lines) => lines,
                Err(e) => return error_response(e),
            };
            scores.clear();
            if let Err(e) = screener.score_batch(pattern, &lines, &mut scores) {
                return error_response(e);
            }
            if scores.len() != lines.len() {
                return Response::Error {
                    code: ErrorCode::Internal,
                    message: format!(
                        "screener returned {} scores for {} lines",
                        scores.len(),
                        lines.len()
                    ),
                };
            }
            best.extend(start, &scores);
            start = end;
        }
        let ranked = best.into_sorted();
        let idx: Vec<usize> = ranked.iter().map(|&(i, _)| i).collect();
        let fetched = match gen.deck.get_many(&idx) {
            Ok(lines) => lines,
            Err(e) => return error_response(e),
        };
        Response::Hits(
            ranked
                .into_iter()
                .zip(fetched)
                .map(|((i, score), smiles)| HitRow {
                    index: i as u64,
                    score_bits: score.to_bits(),
                    smiles,
                })
                .collect(),
        )
    }

    /// Answer one decoded request (everything but `Shutdown`, which the
    /// executors handle so they can stop afterwards).
    pub(super) fn answer(&self, req: Request) -> Response {
        let gen = self.snapshot();
        self.answer_on(&gen, req)
    }

    /// [`Shared::answer`] against a caller-held generation snapshot —
    /// what batched dispatch uses so one readiness sweep's requests all
    /// run against the same deck.
    pub(super) fn answer_on(&self, gen: &Generation, req: Request) -> Response {
        match req {
            Request::Get { line } => match gen.deck.get(line as usize) {
                Ok(l) => Response::Lines(vec![l]),
                Err(e) => error_response(e),
            },
            Request::GetRange { start, end } => {
                if end < start {
                    return Response::Error {
                        code: ErrorCode::BadFrame,
                        message: format!("range end {end} before start {start}"),
                    };
                }
                if end - start > MAX_BATCH_LINES as u64 {
                    return Response::Error {
                        code: ErrorCode::BadFrame,
                        message: format!(
                            "range of {} lines exceeds the {MAX_BATCH_LINES}-line cap",
                            end - start
                        ),
                    };
                }
                match gen.deck.get_range(start as usize..end as usize) {
                    Ok(lines) => Response::Lines(lines),
                    Err(e) => error_response(e),
                }
            }
            Request::GetMany { lines } => {
                let idx: Vec<usize> = lines.iter().map(|&l| l as usize).collect();
                match gen.deck.get_many(&idx) {
                    Ok(lines) => Response::Lines(lines),
                    Err(e) => error_response(e),
                }
            }
            Request::Stats => Response::Stats(self.stats_snapshot()),
            Request::Flip { path } => match self.do_flip(Path::new(&path)) {
                Ok(generation) => Response::Flipped { generation },
                Err(e) => Response::Error {
                    code: ErrorCode::FlipRejected,
                    message: e.to_string(),
                },
            },
            Request::Shutdown => Response::Bye,
            Request::Health => Response::Health(self.health_snapshot()),
            Request::TopHits { k, pattern } => self.answer_top_hits(gen, k as usize, &pattern),
        }
    }

    /// Answer a contiguous run of `GET` requests from one pipelined
    /// connection as a single batched `get_many` against one snapshot —
    /// one index walk and one decoder pass instead of N. Falls back to
    /// per-line answers (on the same snapshot) when the batch fails, so
    /// each request keeps its own typed error.
    pub(super) fn answer_get_run(&self, gen: &Generation, lines: &[u64]) -> Vec<Response> {
        let idx: Vec<usize> = lines.iter().map(|&l| l as usize).collect();
        match gen.deck.get_many(&idx) {
            Ok(fetched) => fetched
                .into_iter()
                .map(|l| Response::Lines(vec![l]))
                .collect(),
            Err(_) => lines
                .iter()
                .map(|&line| self.answer_on(gen, Request::Get { line }))
                .collect(),
        }
    }
}

pub(super) fn open_deck(
    path: &Path,
    options: &DeckOptions,
    degraded: bool,
) -> Result<DeckReader, ZsmilesError> {
    if degraded {
        DeckReader::open_degraded(path, options)
    } else {
        DeckReader::open_with(path, options)
    }
}

pub(super) fn error_response(e: ZsmilesError) -> Response {
    let code = match &e {
        ZsmilesError::LineOutOfRange { .. } => ErrorCode::OutOfRange,
        ZsmilesError::ShardUnavailable { .. } => ErrorCode::Unavailable,
        ZsmilesError::Protocol { .. } => ErrorCode::BadFrame,
        ZsmilesError::Unsupported { .. } => ErrorCode::Unsupported,
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

pub(super) fn busy_response(max_connections: usize) -> Response {
    Response::Error {
        code: ErrorCode::Busy,
        message: format!("server at its {max_connections}-connection capacity"),
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    stream.write_all(&resp.encode())
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let body = match read_frame(&mut stream, shared.max_request_frame) {
            Ok(FrameRead::Frame(b)) => b,
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::TimedOut) => continue,
            Err(ZsmilesError::Protocol { reason }) => {
                // The frame boundary is lost (oversized/truncated/stalled
                // frame): answer with a typed error, then close.
                let _ = write_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: reason,
                    },
                );
                break;
            }
            Err(_) => break,
        };
        let req = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary held — only the body was malformed —
                // so the connection stays usable.
                if write_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                )
                .is_err()
                {
                    break;
                }
                continue;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if matches!(req, Request::Shutdown) {
            let _ = write_response(&mut stream, &Response::Bye);
            shared.begin_shutdown();
            break;
        }
        let resp = shared.answer(req);
        if write_response(&mut stream, &resp).is_err() {
            break;
        }
    }
}

/// An over-cap connection still gets one frame's worth of attention:
/// a `health` probe is answered (a saturated server must not look dead
/// to its orchestrator), anything else — including silence past
/// [`OVERCAP_DEADLINE`] — gets the typed `Busy` and the close the cap
/// always meant.
fn handle_overcap(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let deadline = Instant::now() + OVERCAP_DEADLINE;
    let resp = loop {
        match read_frame(&mut stream, shared.max_request_frame) {
            Ok(FrameRead::Frame(body)) => match Request::decode(&body) {
                Ok(Request::Health) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    break Response::Health(shared.health_snapshot());
                }
                _ => break busy_response(shared.max_connections),
            },
            Ok(FrameRead::TimedOut) if Instant::now() < deadline => continue,
            Ok(_) | Err(_) => break busy_response(shared.max_connections),
        }
    };
    let _ = write_response(&mut stream, &resp);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let prev = shared.active.fetch_add(1, Ordering::SeqCst);
        if prev as usize >= shared.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            // One bounded probe thread per over-cap connect, so HEALTH
            // still answers at the cap; past the probe budget, fall back
            // to an immediate unread Busy.
            let prev_probes = shared.overcap_threads.fetch_add(1, Ordering::SeqCst);
            if prev_probes < OVERCAP_THREADS {
                let shared2 = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("zsmiles-serve-overcap".into())
                    .spawn(move || {
                        handle_overcap(stream, &shared2);
                        shared2.overcap_threads.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.overcap_threads.fetch_sub(1, Ordering::SeqCst);
                }
            } else {
                shared.overcap_threads.fetch_sub(1, Ordering::SeqCst);
                let mut s = stream;
                let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = write_response(&mut s, &busy_response(shared.max_connections));
            }
            continue;
        }
        let shared2 = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("zsmiles-serve-conn".into())
            .spawn(move || {
                handle_connection(stream, &shared2);
                shared2.active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // Shutdown: give in-flight connections a bounded window to drain
    // (their poll loops notice the flag within one POLL_TICK).
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
}

/// Namespace for starting a serving process; see [`Server::start`].
pub struct Server;

impl Server {
    /// Open the deck at `deck_path` (either layout; see
    /// [`DeckReader::open`]), bind `addr` (use port 0 for an ephemeral
    /// port) and start serving. Returns a [`ServeHandle`] immediately;
    /// serving happens on background threads.
    pub fn start<A: ToSocketAddrs>(
        deck_path: &Path,
        addr: A,
        options: ServeOptions,
    ) -> Result<ServeHandle, ZsmilesError> {
        let deck_options = DeckOptions {
            cache: options.cache.clone(),
        };
        let deck = open_deck(deck_path, &deck_options, options.degraded)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let retired_blocks = Arc::new(AtomicU64::new(0));
        let generation = Generation {
            number: deck.generation(),
            deck,
            retired_sink: Arc::clone(&retired_blocks),
        };
        let shared = Arc::new(Shared {
            current: RwLock::new(Arc::new(generation)),
            deck_options,
            degraded_opens: options.degraded,
            max_connections: options.max_connections,
            max_request_frame: options.max_request_frame,
            pipeline_depth: options.pipeline_depth.max(1),
            screener: options.screener.clone(),
            requests: AtomicU64::new(0),
            flips: AtomicU64::new(0),
            active: AtomicU32::new(0),
            overcap_threads: AtomicU32::new(0),
            retired_blocks,
            shutdown: AtomicBool::new(false),
            waker: Mutex::new(None),
        });
        let driver = match options.executor {
            Executor::Pooled => {
                super::event::start(listener, Arc::clone(&shared), options.workers)?
            }
            Executor::Threaded => start_threaded(listener, Arc::clone(&shared))?,
        };
        Ok(ServeHandle {
            addr,
            shared,
            driver: Some(driver),
        })
    }
}

/// Spawn the thread-per-connection accept loop and register its
/// self-connect waker (the blocking `accept()` has nothing else to kick
/// it out).
pub(super) fn start_threaded(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> Result<JoinHandle<()>, ZsmilesError> {
    let addr = listener.local_addr()?;
    shared.set_waker(Box::new(move || {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }));
    let shared2 = Arc::clone(&shared);
    thread::Builder::new()
        .name("zsmiles-serve-accept".into())
        .spawn(move || accept_loop(listener, shared2))
        .map_err(|e| ZsmilesError::Io(e.to_string()))
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServeHandle::wait`] to instead block until a wire `shutdown`
/// request stops it.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    driver: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The generation currently being served.
    pub fn generation(&self) -> u64 {
        self.shared.snapshot().number
    }

    /// Current server counters, same data as the wire `stats` request.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats_snapshot()
    }

    /// Deck health, same data as the wire `health` request.
    pub fn health(&self) -> HealthStats {
        self.shared.health_snapshot()
    }

    /// Atomically flip to the archive at `path` from the server side
    /// (the wire `flip` request does the same). Returns the new
    /// generation number.
    pub fn flip(&self, path: &Path) -> Result<u64, ZsmilesError> {
        self.shared.do_flip(path)
    }

    /// Ask the server to stop; in-flight connections drain promptly
    /// (the pooled executor is woken through its pipe, the threaded one
    /// within a poll tick). Does not block — follow with
    /// [`ServeHandle::wait`].
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the server stops (a wire `shutdown` request, or
    /// [`ServeHandle::shutdown`] from another thread).
    pub fn wait(mut self) {
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(h) = self.driver.take() {
            self.shared.begin_shutdown();
            let _ = h.join();
        }
    }
}
