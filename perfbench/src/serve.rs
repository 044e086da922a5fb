//! The served workloads' two client connections, closed loop over
//! loopback against an in-process server.
//!
//! * Connection A is an interactive sampler: one random `GET` in flight
//!   at a time; its send-to-response times are the served latency.
//! * Connection B is either a bulk fetcher (random `GET`s pipelined 16
//!   deep) or a screening campaign (back-to-back `TOP_HITS` k=100, one
//!   pocket seed per sweep).

use crate::deck::Deck;
use crate::sched::{self, TaskStat};
use crate::stats::{Rng, Windows};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vscreen::{score_line, Pocket, PocketScreener};
use zsmiles_core::serve::{HitRow, Request, Response, ServeHandle, ServeOptions, Server};
use zsmiles_core::{QueryClient, ZsmilesError};

/// Pipeline depth of the bulk-fetch connection.
pub const BULK_DEPTH: usize = 16;
/// Hits per screening request.
pub const TOP_K: u32 = 100;

const STREAM_A: u64 = 0xA;
const STREAM_B: u64 = 0xB;
const STREAM_POCKET: u64 = 0x50C4E7;

/// Start the server the way `zsmiles serve` does: default options
/// (pooled executor, `min(nproc, 8)` workers), optionally with the
/// production screener installed.
pub fn start(manifest: &Path, screener: bool) -> Result<ServeHandle, ZsmilesError> {
    let mut opts = ServeOptions::default();
    if screener {
        opts.screener = Some(Arc::new(PocketScreener));
    }
    Server::start(manifest, "127.0.0.1:0", opts)
}

/// The pocket seed of screening sweep `k` of a run seeded with `seed`.
pub fn pocket_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0x9E37_79B9), STREAM_POCKET).next_u64()
}

/// Which work connection B does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Bulk {
    Gets,
    Screen,
    /// B only; connection A stays idle (the traced screening window).
    ScreenAlone,
}

#[derive(Default)]
pub struct Conn {
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
    /// This client thread's own CPU counters over its loop.
    pub cpu: TaskStat,
}

pub struct Sweep {
    pub pocket_seed: u64,
    pub secs: f64,
    pub hits: Vec<HitRow>,
}

pub struct Outcome {
    pub a: Conn,
    pub b: Conn,
    pub sweeps: Vec<Sweep>,
    /// Heap growth high-water over the run, clients and server together
    /// (the sample buffers are allocated before it starts).
    pub heap_mb: f64,
}

impl Outcome {
    pub fn ops(&self) -> u64 {
        self.a.ops + self.b.ops
    }

    pub fn failed(&self) -> u64 {
        self.a.failed + self.b.failed
    }
}

fn served_line(resp: Result<Response, ZsmilesError>, want: &[u8]) -> bool {
    matches!(resp, Ok(Response::Lines(lines)) if lines.len() == 1 && lines[0] == want)
}

fn sampler(addr: SocketAddr, deck: &Deck, seed: u64, until: Instant, win: &mut Windows) -> Conn {
    let mut out = Conn::default();
    let mut c = match QueryClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.failed = 1;
            out.ops = 1;
            return out;
        }
    };
    let cpu0 = sched::thread_self();
    let mut rng = Rng::new(seed, STREAM_A);
    let t0 = Instant::now();
    let n = deck.len();
    loop {
        let i = rng.below(n);
        let t = Instant::now();
        let got = c.get(i as u64);
        let now = Instant::now();
        win.op_lat(now, (now - t).as_nanos() as u64);
        out.ops += 1;
        if !matches!(&got, Ok(l) if l.as_slice() == deck.expected.get(i)) {
            out.failed += 1;
        }
        if now >= until {
            break;
        }
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.cpu = sched::thread_self().since(&cpu0);
    out
}

fn fetcher(addr: SocketAddr, deck: &Deck, seed: u64, until: Instant, win: &mut Windows) -> Conn {
    let mut out = Conn::default();
    let mut c = match QueryClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.failed = 1;
            out.ops = 1;
            return out;
        }
    };
    let cpu0 = sched::thread_self();
    let mut rng = Rng::new(seed, STREAM_B);
    let t0 = Instant::now();
    let n = deck.len();
    let mut pipe = c.pipeline(BULK_DEPTH);
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(BULK_DEPTH);
    let check = |resp, inflight: &mut VecDeque<usize>, out: &mut Conn, win: &mut Windows| {
        let i = inflight.pop_front().expect("a request per response");
        win.op(Instant::now());
        out.ops += 1;
        if !served_line(resp, deck.expected.get(i)) {
            out.failed += 1;
        }
    };
    let mut k = 0u64;
    loop {
        let i = rng.below(n);
        inflight.push_back(i);
        match pipe.send(&Request::Get { line: i as u64 }) {
            Ok(Some(resp)) => check(Ok(resp), &mut inflight, &mut out, win),
            Ok(None) => {}
            Err(e) => {
                check(Err(e), &mut inflight, &mut out, win);
                break;
            }
        }
        k += 1;
        if k.is_multiple_of(64) && Instant::now() >= until {
            break;
        }
    }
    loop {
        match pipe.recv() {
            Ok(Some(resp)) => check(Ok(resp), &mut inflight, &mut out, win),
            Ok(None) => break,
            Err(e) => {
                let lost = inflight.len() as u64;
                check(Err(e), &mut inflight, &mut out, win);
                out.ops += lost.saturating_sub(1);
                out.failed += lost.saturating_sub(1);
                break;
            }
        }
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.cpu = sched::thread_self().since(&cpu0);
    out
}

/// Whether a wire hit list is consistent with the deck: every row is
/// the expected line, scored bit-identically by the local kernel, in
/// best-first order with ties toward the smaller line.
pub fn hits_consistent(hits: &[HitRow], deck: &Deck, pocket_seed: u64) -> bool {
    let pocket = Pocket::from_seed(pocket_seed);
    let want = (TOP_K as usize).min(deck.len());
    hits.len() == want
        && hits.iter().all(|h| {
            let i = h.index as usize;
            i < deck.len()
                && h.smiles == deck.expected.get(i)
                && score_line(&h.smiles, &pocket).to_bits() == h.score_bits
        })
        && hits.windows(2).all(|w| {
            let (a, b) = (w[0].score(), w[1].score());
            a > b || (a.to_bits() == b.to_bits() && w[0].index < w[1].index)
        })
}

fn screener_loop(
    addr: SocketAddr,
    deck: &Deck,
    seed: u64,
    until: Instant,
    sweeps: &mut Vec<Sweep>,
) -> Conn {
    let mut out = Conn::default();
    let mut c = match QueryClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            out.failed = 1;
            out.ops = 1;
            return out;
        }
    };
    let cpu0 = sched::thread_self();
    let t0 = Instant::now();
    let mut k = 0u64;
    while Instant::now() < until || k == 0 {
        let ps = pocket_seed(seed, k);
        k += 1;
        let t = Instant::now();
        let got = c.top_hits(TOP_K, &ps.to_string());
        let secs = t.elapsed().as_secs_f64();
        out.ops += 1;
        match got {
            Ok(hits) if hits_consistent(&hits, deck, ps) => sweeps.push(Sweep {
                pocket_seed: ps,
                secs,
                hits,
            }),
            _ => out.failed += 1,
        }
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.cpu = sched::thread_self().since(&cpu0);
    out
}

/// Drive both connections against `addr` for `seconds`, closed loop,
/// recording connection A's operations and latencies into `a_win` and
/// B's operations into `b_win`.
pub fn run(
    addr: SocketAddr,
    deck: &Deck,
    seed: u64,
    seconds: f64,
    bulk: Bulk,
    a_win: &mut Windows,
    b_win: &mut Windows,
) -> Outcome {
    let mut sweeps = Vec::with_capacity(64);
    let win = crate::alloc::Window::open();
    let t0 = Instant::now();
    a_win.begin(t0);
    b_win.begin(t0);
    let until = t0 + Duration::from_secs_f64(seconds);
    let (a, b) = std::thread::scope(|s| {
        let sw = &mut sweeps;
        let a = (bulk != Bulk::ScreenAlone).then(|| {
            std::thread::Builder::new()
                .name("pb-client-a".into())
                .spawn_scoped(s, move || sampler(addr, deck, seed, until, a_win))
                .expect("spawning client A")
        });
        let b = std::thread::Builder::new()
            .name("pb-client-b".into())
            .spawn_scoped(s, move || match bulk {
                Bulk::Gets => fetcher(addr, deck, seed, until, b_win),
                Bulk::Screen | Bulk::ScreenAlone => screener_loop(addr, deck, seed, until, sw),
            })
            .expect("spawning client B");
        let a = a
            .map(|h| h.join().expect("client A panicked"))
            .unwrap_or_default();
        (a, b.join().expect("client B panicked"))
    });
    Outcome {
        a,
        b,
        sweeps,
        heap_mb: win.peak_mb(),
    }
}
