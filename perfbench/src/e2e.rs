//! The untraced runs: set up, measure the workload for the run's
//! seconds, check every output, report the end-to-end metrics.
//!
//! Every workload reports all nine end-to-end metrics. Its own timed
//! section gives the metrics it exists for; the rest are measured on the
//! same deck outside the timed section, in slices spread over the run,
//! so that they sample the host across the whole run:
//!
//! | workload       | timed section                         | measured outside it         |
//! |----------------|---------------------------------------|-----------------------------|
//! | `pack`         | repeated packs                        | random gets, in-process sweeps |
//! | `get`          | random `DeckReader::get`              | packs, in-process sweeps    |
//! | `serve_get`    | A depth-1 + B depth-16 `GET`s         | packs, in-process sweeps    |
//! | `serve_screen` | A depth-1 `GET`s + B `TOP_HITS` k=100 | packs                       |
//!
//! The timed section runs in short segments of `seconds / SEGMENTS`
//! (on `pack`, of `PACK_SEGMENT` packs), with a slice of the outside
//! measurements before each and after the last, until the run's seconds
//! are up, so that every metric samples the whole run; the served
//! workloads reconnect for each segment. Rates and latencies of the
//! timed loops are taken per quarter-second window (see
//! `stats::Windows`), those of the side gets per slice. A rate is the
//! median of its per-window, per-pack or per-sweep values, a latency
//! quantile the median of its per-window values. Every time and rate is
//! then scaled to the host's nominal speed (see `speed`).

use crate::deck::{self, Deck, Packed};
use crate::serve::{self, Bulk};
use crate::speed::Speed;
use crate::stats::{self, median, quantile, Rng, Samples, Windows};
use crate::{alloc, Args, Report, Workload};
use std::path::Path;
use std::time::{Duration, Instant};
use vscreen::{ColdArchive, PocketScreener, ScoreTable};
use zsmiles_core::serve::{Screener, ServeHandle};
use zsmiles_core::{DeckReader, ZsmilesError};

/// Random gets per side slice of the `pack` workload: one latency
/// window, with 200 samples beyond its p99.
const SIDE_GETS: usize = 20_000;
/// In-process sweeps per side slice, and the lines each covers.
const SIDE_SWEEPS: usize = 2;
const SIDE_SWEEP_LINES: usize = SWEEP_BATCH;
/// Packs per side slice of the read workloads.
const SIDE_PACKS: usize = 1;
/// Random read-backs of the last pack the `pack` workload timed.
const VERIFY_GETS: usize = 20_000;
/// Lines per in-process sweep batch: the server's own batch size.
pub const SWEEP_BATCH: usize = 4096;
/// Segments the timed section is cut into; connections are fresh in each.
/// With a side slice after every segment, each outside metric gets a
/// sample about every `seconds / SEGMENTS`.
const SEGMENTS: usize = 64;
/// Packs per segment of the `pack` workload. Packed back to back
/// for a whole `seconds / SEGMENTS`, both CPUs stay busy and the packs
/// slow down by a third as the run goes on, more than the reference
/// loop between segments shows; two packs between slices run at the
/// rate the side packs of the read workloads see.
const PACK_SEGMENT: usize = 2;
/// Latency samples kept per window of a timed loop.
const LAT_CAP: usize = 1 << 14;
const STREAM_GET: u64 = 0x6E7;
const STREAM_SIDE: u64 = 0x51DE;

/// A workload's inputs after set-up.
pub struct Env {
    pub deck: Deck,
    pub packed: Packed,
    pub reader: DeckReader,
    pub server: Option<ServeHandle>,
}

/// One set-up: generate the deck, pack it, open it, and for the served
/// workloads start the server.
fn setup_once(args: &Args, dir: &Path) -> Result<Env, ZsmilesError> {
    let deck = Deck::generate(args.lines, args.seed);
    let packed = deck::pack(&deck, dir, crate::nproc())?;
    let reader = deck::open(&packed)?;
    let server = match args.workload {
        Workload::ServeGet => Some(serve::start(&packed.manifest, false)?),
        Workload::ServeScreen => Some(serve::start(&packed.manifest, true)?),
        _ => None,
    };
    Ok(Env {
        deck,
        packed,
        reader,
        server,
    })
}

/// Set up `args.setup_reps` times; keep the last. Returns every set-up
/// time and every set-up pack's rate.
fn setup(args: &Args) -> Result<(Env, Vec<f64>, Vec<f64>), ZsmilesError> {
    let mut times = Vec::new();
    let mut pack_rates = Vec::new();
    let mut env = None;
    for rep in 0..args.setup_reps {
        drop(env.take());
        let t0 = Instant::now();
        let e = setup_once(args, &args.work_dir.join(format!("setup{}", rep % 2)))?;
        times.push(t0.elapsed().as_secs_f64());
        pack_rates.push(e.packed.mb_s(&e.deck));
        env = Some(e);
    }
    Ok((env.expect("at least one set-up"), times, pack_rates))
}

/// Random gets through the production read path, each timed and checked
/// against the expected line, until `done(ops, now)`. Returns
/// (operations, failures).
fn random_gets(
    reader: &DeckReader,
    deck: &Deck,
    rng: &mut Rng,
    mut done: impl FnMut(u64, Instant) -> bool,
    mut record: impl FnMut(Instant, u64),
) -> (u64, u64) {
    let (mut ops, mut failed) = (0u64, 0u64);
    loop {
        let i = rng.below(deck.len());
        let t = Instant::now();
        let got = reader.get(i);
        let now = Instant::now();
        record(now, (now - t).as_nanos() as u64);
        ops += 1;
        if !matches!(&got, Ok(l) if l.as_slice() == deck.expected.get(i)) {
            failed += 1;
        }
        if done(ops, now) {
            return (ops, failed);
        }
    }
}

/// An in-process screening sweep over the first `lines` lines, as the
/// server runs one: 4096-line `get_range` batches scored by the
/// production screener, then top-k selection and the winners fetched.
/// Returns lines per second.
fn local_sweep(reader: &DeckReader, lines: usize, pocket_seed: u64) -> Result<f64, ZsmilesError> {
    let pattern = pocket_seed.to_string();
    let t0 = Instant::now();
    let mut scores = Vec::with_capacity(lines);
    let mut start = 0;
    while start < lines {
        let end = (start + SWEEP_BATCH).min(lines);
        let batch = reader.get_range(start..end)?;
        PocketScreener.score_batch(&pattern, &batch, &mut scores)?;
        start = end;
    }
    let top: Vec<usize> = ScoreTable::new(scores)
        .top_k(serve::TOP_K as usize)
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    std::hint::black_box(reader.get_many(&top)?);
    Ok(lines as f64 / t0.elapsed().as_secs_f64())
}

/// The metrics a workload measures outside its timed section.
struct Side {
    pack_rates: Vec<f64>,
    sweep_rates: Vec<f64>,
    /// Per slice of side gets: operations per second, p50 and p99.
    get_rates: Vec<f64>,
    get_p50: Vec<f64>,
    get_p99: Vec<f64>,
    /// The reference loop, sampled at both ends of every slice.
    speed: Speed,
    rng: Rng,
}

impl Side {
    fn new(seed: u64, pack_rates: Vec<f64>) -> Side {
        Side {
            pack_rates,
            sweep_rates: Vec::new(),
            get_rates: Vec::new(),
            get_p50: Vec::new(),
            get_p99: Vec::new(),
            speed: Speed::new(),
            rng: Rng::new(seed, STREAM_SIDE),
        }
    }

    /// One slice: what the workload's own timed section does not give.
    fn slice(&mut self, args: &Args, env: &Env, r: &mut Report) -> Result<(), ZsmilesError> {
        self.speed.sample();
        if args.workload != Workload::ServeScreen {
            let lines = SIDE_SWEEP_LINES.min(env.deck.len());
            for _ in 0..SIDE_SWEEPS {
                let pocket = self.rng.next_u64();
                self.sweep_rates
                    .push(local_sweep(&env.reader, lines, pocket)?);
            }
            r.count(SIDE_SWEEPS as u64, 0);
        }
        if args.workload != Workload::Pack {
            for _ in 0..SIDE_PACKS {
                let first = self.rng.below(env.deck.len());
                let dir = args.work_dir.join("side-pack");
                let p = deck::pack_rotated(&env.deck, &dir, crate::nproc(), first)?;
                self.pack_rates.push(p.mb_s(&env.deck));
            }
            r.count(SIDE_PACKS as u64, 0);
        }
        if args.workload == Workload::Pack {
            let n = SIDE_GETS.min(env.deck.len() * 4);
            let mut lat = Samples::with_capacity(n);
            let t0 = Instant::now();
            let (ops, failed) = random_gets(
                &env.reader,
                &env.deck,
                &mut self.rng,
                |ops, _| ops >= n as u64,
                |_, ns| lat.push(ns),
            );
            self.get_rates.push(ops as f64 / t0.elapsed().as_secs_f64());
            let lat = lat.into_sorted();
            self.get_p50.push(quantile(&lat, 0.50));
            self.get_p99.push(quantile(&lat, 0.99));
            r.count(ops, failed);
        }
        self.speed.sample();
        Ok(())
    }

    fn report(self, workload: Workload, r: &mut Report) {
        r.host_speed = Some(self.speed.relative());
        if workload != Workload::Pack {
            r.windowed("pack_mb_s", self.pack_rates, "MB/s");
        }
        if workload != Workload::ServeScreen {
            r.windowed("sweep_lines_s", self.sweep_rates, "lines/s");
        }
        if workload == Workload::Pack {
            r.windowed("get_ops_s", self.get_rates, "1/s");
            r.windowed("get_p50_ns", self.get_p50, "ns");
            r.windowed("get_p99_ns", self.get_p99, "ns");
        }
    }
}

/// Byte-for-byte: the first screening sweep over the wire equals a local
/// `vscreen` campaign (`screen` + `top_hits_cold`) over the same deck
/// and pocket.
fn first_sweep_matches_local(
    sweep: &serve::Sweep,
    deck: &Deck,
    packed: &Packed,
) -> Result<bool, ZsmilesError> {
    let scores = vscreen::screen(&deck.data, &vscreen::Pocket::from_seed(sweep.pocket_seed));
    let cold = ColdArchive::open(&packed.manifest)?;
    let local = vscreen::top_hits_cold(&cold, &scores, serve::TOP_K as usize)?;
    Ok(local.len() == sweep.hits.len()
        && local.iter().zip(&sweep.hits).all(|(l, w)| {
            l.index as u64 == w.index && l.score.to_bits() == w.score_bits && l.smiles == w.smiles
        }))
}

/// Timed state carried across a run's segments.
struct Timed {
    /// `pack`: MB/s and heap high-water (MB) of every timed pack, and
    /// the last pack.
    pack_rates: Vec<f64>,
    pack_heap: Vec<f64>,
    last_pack: Option<Packed>,
    /// Connection A's (or the get loop's) windows, and connection B's.
    a: Vec<Windows>,
    b: Vec<Windows>,
    sweeps: Vec<serve::Sweep>,
    /// Requests the served workloads' clients sent.
    client_ops: u64,
    heap_mb: f64,
    rng: Rng,
}

/// One segment of the workload's timed section.
fn segment(
    args: &Args,
    env: &Env,
    k: usize,
    secs: f64,
    t: &mut Timed,
    r: &mut Report,
) -> Result<(), ZsmilesError> {
    match args.workload {
        Workload::Pack => {
            // Pack the deck into a fresh directory again and again, each
            // time from a seeded random line: where the shard cuts fall
            // decides which staged buffers must grow, so the heap and
            // the rate of one placement depend on the seed, and their
            // mean over many placements does not.
            let dir = args.work_dir.join("pack");
            for _ in 0..PACK_SEGMENT {
                let first = t.rng.below(env.deck.len());
                let win = alloc::Window::open();
                let p = deck::pack_rotated(&env.deck, &dir, crate::nproc(), first)?;
                t.pack_heap.push(win.peak_mb());
                t.pack_rates.push(p.mb_s(&env.deck));
                t.last_pack = Some(p);
            }
            r.count(PACK_SEGMENT as u64, 0);
        }
        Workload::Get => {
            // One thread, uniformly random gets.
            let w = &mut t.a[k];
            let t0 = Instant::now();
            w.begin(t0);
            let until = t0 + Duration::from_secs_f64(secs);
            let win = alloc::Window::open();
            let (ops, failed) = random_gets(
                &env.reader,
                &env.deck,
                &mut t.rng,
                |_, now| now >= until,
                |now, ns| w.op_lat(now, ns),
            );
            t.heap_mb = t.heap_mb.max(win.peak_mb());
            r.count(ops, failed);
        }
        Workload::ServeGet | Workload::ServeScreen => {
            // Both connections, fresh for each segment.
            let bulk = if args.workload == Workload::ServeScreen {
                Bulk::Screen
            } else {
                Bulk::Gets
            };
            let server = env
                .server
                .as_ref()
                .expect("served workloads start a server");
            let seed = args.seed.wrapping_add(k as u64);
            let out = serve::run(
                server.addr(),
                &env.deck,
                seed,
                secs,
                bulk,
                &mut t.a[k],
                &mut t.b[k],
            );
            t.heap_mb = t.heap_mb.max(out.heap_mb);
            t.client_ops += out.ops();
            r.count(out.ops(), out.failed());
            t.sweeps.extend(out.sweeps);
        }
    }
    Ok(())
}

/// Checks and metrics once every segment has run.
fn finish(
    args: &Args,
    env: &Env,
    t: Timed,
    served: u64,
    r: &mut Report,
) -> Result<(), ZsmilesError> {
    r.metric("peak_heap_mb", t.heap_mb, "MB");
    match args.workload {
        Workload::Pack => {
            // Which staged shard buffers overlap at a pack's worst moment
            // depends on thread timing, so the high-water of one pack
            // moves in steps of a whole raw shard; the largest over a run
            // catches a rare step, and the median over the packs jumps
            // between steps as the share of each moves. The mean over
            // the packs follows that share smoothly.
            Report::show("peak_heap_mb", &t.pack_heap);
            let mean = t.pack_heap.iter().sum::<f64>() / t.pack_heap.len() as f64;
            r.metric("peak_heap_mb", mean, "MB");
            r.windowed("pack_mb_s", t.pack_rates, "MB/s");
            // Read the last pack back, then the deep check.
            let p = t.last_pack.expect("at least one pack");
            let deck = &env.deck;
            r.check(
                p.info.lines as usize == deck.len(),
                "pack stores every line",
            );
            let reader = deck::open(&p)?;
            let mut rng = Rng::new(args.seed, STREAM_GET);
            let mut failed = 0;
            for _ in 0..VERIFY_GETS {
                let i = rng.below(deck.len());
                let want = deck.expected.get((p.first_line + i) % deck.len());
                if !matches!(reader.get(i), Ok(l) if l.as_slice() == want) {
                    failed += 1;
                }
            }
            r.count(VERIFY_GETS as u64, failed);
            drop(reader);
            let report = zsmiles_core::check_deck(&p.manifest)?;
            r.check(
                report.is_ok() && report.lines_ok as usize == deck.len(),
                "check_deck passes on the packed deck",
            );
        }
        Workload::Get => {
            r.windowed("get_ops_s", stats::ops_s(&t.a, None), "1/s");
            r.windowed("get_p50_ns", stats::latency(&t.a, 0.50), "ns");
            r.windowed("get_p99_ns", stats::latency(&t.a, 0.99), "ns");
        }
        Workload::ServeGet | Workload::ServeScreen => {
            let screen = args.workload == Workload::ServeScreen;
            r.check(
                served == t.client_ops,
                "server request count equals client requests",
            );
            r.windowed("get_p50_ns", stats::latency(&t.a, 0.50), "ns");
            r.windowed("get_p99_ns", stats::latency(&t.a, 0.99), "ns");
            if !screen {
                r.windowed("get_ops_s", stats::ops_s(&t.a, Some(&t.b)), "1/s");
                return Ok(());
            }
            r.windowed("get_ops_s", stats::ops_s(&t.a, None), "1/s");
            let rates: Vec<f64> = t
                .sweeps
                .iter()
                .map(|s| env.deck.len() as f64 / s.secs)
                .collect();
            r.windowed("sweep_lines_s", rates, "lines/s");
            match t.sweeps.first() {
                Some(first) => r.check(
                    first_sweep_matches_local(first, &env.deck, &env.packed)?,
                    "first sweep equals the local screen + top_hits_cold",
                ),
                None => r.check(false, "at least one sweep completes"),
            }
        }
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, ZsmilesError> {
    let (env, setup_times, setup_pack_rates) = setup(args)?;
    let mut r = Report {
        deck_bytes: env.deck.raw_bytes().len(),
        ..Default::default()
    };
    r.metric("setup_s", median(&setup_times), "s");
    r.metric("payload_ratio", env.packed.info.stats.ratio(), "ratio");
    r.metric(
        "stored_ratio",
        env.packed.stored_bytes as f64 / env.deck.raw_bytes().len() as f64,
        "ratio",
    );
    let secs = args.seconds / SEGMENTS as f64;
    let windows = |cap| (0..SEGMENTS).map(|_| Windows::new(secs, cap)).collect();
    let mut t = Timed {
        pack_rates: Vec::new(),
        pack_heap: Vec::new(),
        last_pack: None,
        a: windows(LAT_CAP),
        b: windows(0),
        sweeps: Vec::new(),
        client_ops: 0,
        heap_mb: 0.0,
        rng: Rng::new(args.seed, STREAM_GET),
    };
    let requests = |env: &Env| env.server.as_ref().map_or(0, |s| s.stats().requests);
    let before = requests(&env);
    // Segments and side slices alternate until the run's seconds are up
    // (at most `SEGMENTS` timed ones, which have a window set each), so
    // a slow host runs fewer of them rather than a longer run.
    let mut side = Side::new(args.seed, setup_pack_rates);
    let max_segments = match args.workload {
        Workload::Pack => usize::MAX,
        _ => SEGMENTS,
    };
    let t0 = Instant::now();
    side.slice(args, &env, &mut r)?;
    let mut k = 0;
    while k == 0 || (k < max_segments && t0.elapsed().as_secs_f64() < args.seconds) {
        segment(args, &env, k, secs, &mut t, &mut r)?;
        side.slice(args, &env, &mut r)?;
        k += 1;
    }
    t.a.truncate(k);
    t.b.truncate(k);
    let served = requests(&env) - before;
    finish(args, &env, t, served, &mut r)?;
    side.report(args.workload, &mut r);
    // Packs keep both CPUs busy, as do the served workloads' server and
    // client threads; set-up, random gets and in-process sweeps run on
    // one.
    let serving = matches!(args.workload, Workload::ServeGet | Workload::ServeScreen);
    r.scale_to_nominal(|name| name == "pack_mb_s" || (serving && name != "setup_s"));
    Ok(r)
}

impl Report {
    /// A rate or latency quantile summarised from its per-window (or
    /// per-pack, per-sweep, per-slice) values by their median: a window
    /// in which a request waited behind a long job (a `TOP_HITS` sweep
    /// holds a request for up to a second) has a quantile thousands of
    /// times the others, and the median ignores it. The values also go
    /// to stderr, so that a run's spread can be inspected.
    fn windowed(&mut self, name: &str, values: Vec<f64>, unit: &'static str) {
        Report::show(name, &values);
        self.metric(name, median(&values), unit);
    }

    fn show(name: &str, values: &[f64]) {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.1}")).collect();
        eprintln!("perfbench: {name} per window: [{}]", shown.join(", "));
    }
}
