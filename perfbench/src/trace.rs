//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each layer's public functions.
//!
//! For every workload the run measures the end-to-end operation
//! untraced, then replays a sample of the same operations as a root
//! span whose child spans are the layer calls that compose it, and
//! checks that the composed result is byte-identical to the end-to-end
//! call. `<workload>.coverage` is the sum of the layer times over the
//! untraced end-to-end time; below 0.90 the table flags the workload
//! and names what the layers leave out. `<workload>.trace_overhead_pct`
//! is how much longer the traced operation took than the untraced one.
//!
//! Every traced run measures all four workloads, so every per-layer
//! metric appears in every traced result; `--workload` only names the
//! run.

use crate::deck::{self, Deck, Router};
use crate::e2e::SWEEP_BATCH;
use crate::serve::{self, Bulk};
use crate::stats::{median, quantile, Rng, Windows};
use crate::{alloc, sched, Args, Report, Workload};
use std::path::Path;
use std::time::Instant;
use vscreen::{PocketScreener, ScoreTable};
use zsmiles_core::serve::{Request, Response, Screener};
use zsmiles_core::{
    compress_parallel_dyn, sync_parent_dir, Archive, ArchiveSink, AtomicFileSink, Compressor,
    DeckReader, Dictionary, LineIndex, ShardManifest, ZsmilesError,
};

/// Coverage below this flags a workload's layer table.
const COVERAGE_FLOOR: f64 = 0.90;
const STREAM_TRACE: u64 = 0x7ACE;

/// One timed call: name, parent span, start and duration (ns from the
/// tracer's epoch).
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans kept in memory for the whole run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 19),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].dur_ns = end - self.spans[id].start_ns;
    }

    /// Run `f` as a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean duration (ns) of the spans named `name`.
    fn mean(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(t, n), s| (t + s.dur_ns, n + 1));
        if n == 0 {
            f64::NAN
        } else {
            sum as f64 / n as f64
        }
    }

    /// Mean self time (ns) of the spans named `name`: duration minus
    /// the time their child spans cover.
    fn mean_self(&self, name: &str) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        let (sum, n) = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0u64, 0u64), |(t, n), (i, s)| {
                (t + s.dur_ns.saturating_sub(child[i]), n + 1)
            });
        sum as f64 / n.max(1) as f64
    }
}

/// One workload's layer table: rows of (layer, mean ns per end-to-end
/// operation), the untraced end-to-end ns per operation they are
/// compared with, the tracing overhead, and what the layers leave out.
struct Table {
    workload: Workload,
    rows: Vec<(&'static str, f64)>,
    untraced_ns: f64,
    overhead_pct: f64,
    remainder: &'static str,
}

impl Table {
    fn coverage(&self) -> f64 {
        self.rows.iter().map(|(_, ns)| ns).sum::<f64>() / self.untraced_ns
    }

    fn report(&self, r: &mut Report) {
        let w = self.workload.name();
        println!(
            "== {w}: end to end {:.1} ns/op untraced; tracing overhead {:+.1}%",
            self.untraced_ns, self.overhead_pct
        );
        for (name, ns) in &self.rows {
            println!(
                "   {name:<28} {ns:>16.1} ns/op {:>7.1}%",
                100.0 * ns / self.untraced_ns
            );
        }
        let cov = self.coverage();
        println!("   {w}.coverage = {cov:.3}");
        if cov < COVERAGE_FLOOR {
            println!(
                "   FLAG {w}: layers cover {:.1}% (< {:.0}%); unexplained {:.1} ns/op: {}",
                cov * 100.0,
                COVERAGE_FLOOR * 100.0,
                self.untraced_ns * (1.0 - cov),
                self.remainder
            );
        }
        r.metric(&format!("{w}.coverage"), cov, "ratio");
        r.metric(&format!("{w}.trace_overhead_pct"), self.overhead_pct, "%");
    }
}

fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

// ---------------------------------------------------------------------------
// pack: encode, index, CRC, sink writes, commit
// ---------------------------------------------------------------------------

fn pack_layers(
    deck: &Deck,
    work: &Path,
    r: &mut Report,
    tr: &mut Tracer,
) -> Result<Table, ZsmilesError> {
    const REPS: usize = 3;
    let raw = deck.raw_bytes();
    let lines = deck.len() as f64;
    let dict = deck::dictionary();
    let threads = crate::nproc();
    let pack_dir = work.join("pack");

    let mut untraced = Vec::new();
    let mut last = None;
    for _ in 0..REPS {
        let p = deck::pack(deck, &pack_dir, threads)?;
        untraced.push(p.secs * 1e9);
        last = Some(p);
    }
    let p = last.expect("packed");
    r.count(REPS as u64, 0);
    // The end-to-end pack's payload, shard by shard, for the identity check.
    let mut e2e_payload = Vec::new();
    for s in &p.info.shards {
        e2e_payload.extend_from_slice(Archive::open(&pack_dir.join(&s.file))?.payload());
    }

    let mut fsyncs = 0u64;
    let mut z_len = 0usize;
    let replay_dir = work.join("pack-replay");
    let manifest = replay_dir.join("deck.zsm");
    for _ in 0..REPS {
        // Serial encode on its own: the reference for the parallel span.
        let mut serial = Vec::with_capacity(raw.len());
        tr.span("compress.serial", None, || {
            Compressor::new(Dictionary::builtin()).compress_buffer(raw, &mut serial)
        });

        if replay_dir.exists() {
            std::fs::remove_dir_all(&replay_dir)?;
        }
        std::fs::create_dir_all(&replay_dir)?;
        let root = tr.open("pack", None);
        let (z, _) = tr.span("parallel.compress", Some(root), || {
            compress_parallel_dyn(&dict, raw, threads)
        });
        let index = tr.span("index.append", Some(root), || {
            let mut ix = LineIndex::default();
            ix.append_scan(&z);
            ix
        });
        std::hint::black_box(tr.span("crc32", Some(root), || textcomp::crc32::crc32(&z)));
        // One file per shard, cut where the pack cuts, written the way
        // shards are: atomic sinks published with deferred syncs, then
        // the directory, then the manifest committed.
        let mut at = 0usize;
        let cuts: Vec<usize> = p
            .info
            .shards
            .iter()
            .map(|s| {
                at += s.lines as usize;
                if at >= index.len() {
                    z.len()
                } else {
                    index.line_range(at).start
                }
            })
            .collect();
        let sinks = tr.span("sink.append", Some(root), || {
            let mut from = 0;
            let mut sinks = Vec::new();
            for (k, &to) in cuts.iter().enumerate() {
                let mut sink =
                    AtomicFileSink::create(&replay_dir.join(format!("deck.{k:05}.zsa")))?;
                sink.append(&z[from..to])?;
                sink.flush()?;
                sinks.push(sink);
                from = to;
            }
            Ok::<_, ZsmilesError>(sinks)
        })?;
        fsyncs = tr.span("sink.commit", Some(root), || {
            let mut n = 0;
            for sink in sinks {
                sink.commit_deferred()?.sync()?;
                n += 1;
            }
            sync_parent_dir(&manifest)?;
            let mut text = Vec::new();
            ShardManifest::new(dict.flavor(), p.info.shards.clone()).write_to(&mut text)?;
            let mut sink = AtomicFileSink::create(&manifest)?;
            sink.append(&text)?;
            sink.commit()?;
            // The directory once, then the manifest file and its directory.
            Ok::<_, ZsmilesError>(n + 3)
        })?;
        tr.close(root);
        let ok = z == serial && z == e2e_payload && index.len() == deck.len();
        r.check(
            ok,
            "pack replay payload equals the end-to-end pack's shards",
        );
        r.count(1, u64::from(!ok));
        z_len = z.len();
    }
    std::fs::remove_dir_all(&replay_dir).ok();

    let per_line = |name| tr.mean(name) / lines;
    let z_mb = z_len as f64 / 1e6;
    r.metric("compress.ns_per_line", per_line("compress.serial"), "ns");
    r.metric(
        "parallel.compress_ns_per_line",
        per_line("parallel.compress"),
        "ns",
    );
    r.metric("index.append_ns_per_line", per_line("index.append"), "ns");
    r.metric("crc32.mb_s", z_mb / (tr.mean("crc32") / 1e9), "MB/s");
    r.metric(
        "sink.append_mb_s",
        z_mb / (tr.mean("sink.append") / 1e9),
        "MB/s",
    );
    r.metric("sink.commit_ms", tr.mean("sink.commit") / 1e6, "ms");
    r.metric("sink.fsyncs", fsyncs as f64, "count");
    r.metric("shard.files", p.info.shards.len() as f64, "count");
    r.metric(
        "writer.peak_buffered_mb",
        p.info.peak_buffered_bytes as f64 / 1e6,
        "MB",
    );
    let untraced_ns = median(&untraced);
    Ok(Table {
        workload: Workload::Pack,
        rows: [
            "parallel.compress",
            "index.append",
            "crc32",
            "sink.append",
            "sink.commit",
        ]
        .into_iter()
        .map(|n| (n, tr.mean(n)))
        .collect(),
        untraced_ns,
        overhead_pct: overhead_pct(tr.mean("pack"), untraced_ns),
        remainder: "line splitting and shard cuts, raw-shard staging copies, container \
                    header/dictionary/index/footer writes, and worker-pool hand-off",
    })
}

// ---------------------------------------------------------------------------
// get: route, index lookup + source read, decode
// ---------------------------------------------------------------------------

fn get_layers(
    deck: &Deck,
    reader: &DeckReader,
    seed: u64,
    r: &mut Report,
    tr: &mut Tracer,
) -> Table {
    const UNTRACED: usize = 200_000;
    const TRACED: usize = 50_000;
    let sharded = deck::sharded(reader);
    let router = Router::new(sharded);
    let dict = reader.dictionary();

    let mut rng = Rng::new(seed, STREAM_TRACE);
    let picks: Vec<usize> = (0..UNTRACED).map(|_| rng.below(deck.len())).collect();
    let t0 = Instant::now();
    for &i in &picks {
        std::hint::black_box(reader.get(i).ok());
    }
    let untraced_ns = t0.elapsed().as_nanos() as f64 / UNTRACED as f64;

    // Three passes over fresh random lines, so that each layer meets the
    // caches as the end-to-end call does: the whole get, the owning
    // shard's get, then the shard's index lookup + read and the decode.
    let (mut bad, mut allocs) = (0u64, 0u64);
    for _ in 0..TRACED {
        let i = rng.below(deck.len());
        let a0 = alloc::count();
        let got = tr.span("deck.get", None, || reader.get(i));
        allocs += alloc::count() - a0;
        bad += u64::from(!matches!(&got, Ok(l) if l.as_slice() == deck.expected.get(i)));
    }
    for _ in 0..TRACED {
        let i = rng.below(deck.len());
        let (s, local) = router.locate(i);
        let shard = sharded
            .shard_reader(s)
            .expect("a healthy deck serves every shard");
        let got = tr.span("shard.get", None, || shard.get(local));
        bad += u64::from(!matches!(&got, Ok(l) if l.as_slice() == deck.expected.get(i)));
    }
    for _ in 0..TRACED {
        let i = rng.below(deck.len());
        let (s, local) = router.locate(i);
        let shard = sharded
            .shard_reader(s)
            .expect("a healthy deck serves every shard");
        let root = tr.open("get", None);
        let mut out = Vec::new();
        let dec = tr
            .span("reader.compressed_line", Some(root), || {
                shard.compressed_line(local)
            })
            .and_then(|c| {
                tr.span("decompress.line", Some(root), || {
                    dict.decompress_line(&c, &mut out)
                })
            });
        tr.close(root);
        let ok = dec.is_ok()
            && out == deck.expected.get(i)
            && matches!(reader.get(i), Ok(l) if l == out);
        bad += u64::from(!ok);
    }
    r.count((UNTRACED + 3 * TRACED) as u64, bad);
    r.check(
        bad == 0,
        "composed get equals DeckReader::get and the expected line",
    );

    let route = tr.mean("deck.get") - tr.mean("shard.get");
    r.metric(
        "reader.compressed_line_ns",
        tr.mean("reader.compressed_line"),
        "ns",
    );
    r.metric("decompress.line_ns", tr.mean("decompress.line"), "ns");
    r.metric("shard.route_ns", route, "ns");
    r.metric("alloc.per_get", allocs as f64 / TRACED as f64, "count");
    Table {
        workload: Workload::Get,
        rows: vec![
            ("shard.route", route),
            ("reader.compressed_line", tr.mean("reader.compressed_line")),
            ("decompress.line", tr.mean("decompress.line")),
        ],
        untraced_ns,
        overhead_pct: overhead_pct(tr.mean("deck.get"), untraced_ns),
        remainder: "result allocation and decoder set-up inside the shard reader's get",
    }
}

// ---------------------------------------------------------------------------
// serve_get: protocol, deck read, and the serving machinery around them
// ---------------------------------------------------------------------------

fn thread_group(name: &str) -> Option<&'static str> {
    if name.starts_with("zsmiles-serve-e") {
        Some("event")
    } else if name.starts_with("zsmiles-serve-w") {
        Some("worker")
    } else {
        None
    }
}

fn serve_get_layers(
    deck: &Deck,
    reader: &DeckReader,
    manifest: &Path,
    args: &Args,
    r: &mut Report,
    tr: &mut Tracer,
) -> Result<Table, ZsmilesError> {
    const REPLAY: usize = 20_000;
    const BATCHES: usize = 2_000;
    let window = (args.seconds * 0.15).clamp(0.5, 3.0);
    let server = serve::start(manifest, false)?;
    let addr = server.addr();

    let mut wins: Vec<Windows> = (0..4).map(|_| Windows::new(window, 1 << 15)).collect();
    let [a0_win, b0_win, a1_win, b1_win] = &mut wins[..] else {
        unreachable!()
    };
    let untraced = serve::run(addr, deck, args.seed, window, Bulk::Gets, a0_win, b0_win);
    r.count(untraced.ops(), untraced.failed());
    let untraced_p50 = quantile(&a0_win.pooled(), 0.5);

    // The traced window: the same traffic, with thread, allocation and
    // request counters read around it.
    let req0 = server.stats().requests;
    let a0 = alloc::count();
    let tasks0 = sched::tasks();
    let traced = serve::run(
        addr,
        deck,
        args.seed ^ 1,
        window,
        Bulk::Gets,
        a1_win,
        b1_win,
    );
    let tasks1 = sched::tasks();
    let allocs = alloc::count() - a0;
    let served = server.stats().requests - req0;
    drop(server);
    let ops = traced.ops();
    r.count(ops, traced.failed());
    r.check(
        served == ops,
        "serve.requests equals the requests the clients sent",
    );
    let traced_p50 = quantile(&a1_win.pooled(), 0.5);

    let groups = sched::grouped_delta(&tasks0, &tasks1, thread_group);
    let group = |g| {
        groups
            .iter()
            .find(|(k, _)| *k == g)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    let (event, worker) = (group("event"), group("worker"));
    let mut client = traced.a.cpu;
    client.add(&traced.b.cpu);
    let per_op_us = |ns: u64| ns as f64 / 1e3 / ops as f64;
    r.metric("cpu.event_busy_us_per_op", per_op_us(event.run_ns), "us");
    r.metric("cpu.worker_busy_us_per_op", per_op_us(worker.run_ns), "us");
    r.metric("cpu.client_busy_us_per_op", per_op_us(client.run_ns), "us");
    r.metric(
        "cpu.runq_wait_us_per_op",
        per_op_us(event.wait_ns + worker.wait_ns + client.wait_ns),
        "us",
    );
    r.metric(
        "sched.ctx_switches_per_op",
        (event.ctx + worker.ctx + client.ctx) as f64 / ops as f64,
        "count",
    );
    r.metric("alloc.per_op", allocs as f64 / ops as f64, "count");
    r.metric("serve.requests", served as f64, "count");

    // In process: the same GET through request encode and decode, the
    // deck read, and response encode and decode.
    let mut rng = Rng::new(args.seed, STREAM_TRACE ^ 0x5E);
    let mut bad = 0u64;
    for _ in 0..REPLAY {
        let i = rng.below(deck.len());
        let root = tr.open("served.get", None);
        let frame = tr.span("protocol.request_encode", Some(root), || {
            Request::Get { line: i as u64 }.encode()
        });
        let req = tr.span("protocol.request_decode", Some(root), || {
            Request::decode(&frame[4..])
        });
        let line = tr.span("deck.get.served", Some(root), || reader.get(i));
        let ok_line = line.is_ok();
        let resp = Response::Lines(vec![line.unwrap_or_default()]);
        let rframe = tr.span("protocol.response_encode", Some(root), || resp.encode());
        let back = tr.span("protocol.response_decode", Some(root), || {
            Response::decode(&rframe[4..])
        });
        tr.close(root);
        let ok = ok_line
            && matches!(req, Ok(Request::Get { line }) if line == i as u64)
            && matches!(&back, Ok(Response::Lines(l)) if l.len() == 1 && l[0] == deck.expected.get(i));
        bad += u64::from(!ok);
    }
    for _ in 0..BATCHES {
        let batch: Vec<usize> = (0..serve::BULK_DEPTH)
            .map(|_| rng.below(deck.len()))
            .collect();
        let got = tr.span("shard.get_many", None, || reader.get_many(&batch));
        let ok = matches!(&got, Ok(v) if v.len() == batch.len()
            && v.iter().zip(&batch).all(|(l, &i)| l.as_slice() == deck.expected.get(i)));
        bad += u64::from(!ok);
    }
    r.count((REPLAY + BATCHES) as u64, bad);
    r.check(
        bad == 0,
        "protocol replay and get_many return the expected lines",
    );

    let layers = [
        "protocol.request_encode",
        "protocol.request_decode",
        "deck.get.served",
        "protocol.response_encode",
        "protocol.response_decode",
    ];
    for name in layers.iter().filter(|n| n.starts_with("protocol.")) {
        r.metric(&format!("{name}_ns"), tr.mean(name), "ns");
    }
    let in_process: f64 = layers.iter().map(|n| tr.mean(n)).sum();
    r.metric(
        "shard.get_many_ns_per_line",
        tr.mean("shard.get_many") / serve::BULK_DEPTH as f64,
        "ns",
    );
    r.metric("serve.residual_ns", untraced_p50 - in_process, "ns");
    Ok(Table {
        workload: Workload::ServeGet,
        rows: layers.iter().map(|&n| (n, tr.mean(n))).collect(),
        untraced_ns: untraced_p50,
        overhead_pct: overhead_pct(traced_p50, untraced_p50),
        remainder: "event loop, wakeup pipe, worker queue hand-off and the loopback socket \
                    round trip (serve.residual_ns; see cpu.* and sched.*)",
    })
}

// ---------------------------------------------------------------------------
// serve_screen: bulk decode, scoring, top-k, winner fetch
// ---------------------------------------------------------------------------

type Hits = (Vec<(usize, f64)>, Vec<Vec<u8>>);

/// One in-process sweep as the server runs it. Given a tracer and a
/// root span, every layer call is a child span.
fn sweep(
    reader: &DeckReader,
    pattern: &str,
    mut tr: Option<(&mut Tracer, usize)>,
) -> Result<Hits, ZsmilesError> {
    let mut timed =
        |name: &'static str, f: &mut dyn FnMut() -> Result<(), ZsmilesError>| match tr.as_mut() {
            Some((t, root)) => t.span(name, Some(*root), f),
            None => f(),
        };
    let n = reader.len();
    let mut scores = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + SWEEP_BATCH).min(n);
        let mut batch = Vec::new();
        timed("shard.get_range", &mut || {
            batch = reader.get_range(start..end)?;
            Ok(())
        })?;
        timed("vscreen.score", &mut || {
            PocketScreener.score_batch(pattern, &batch, &mut scores)
        })?;
        start = end;
    }
    let table = ScoreTable::new(scores);
    let mut top = Vec::new();
    timed("vscreen.top_k", &mut || {
        top = table.top_k(serve::TOP_K as usize);
        Ok(())
    })?;
    let idx: Vec<usize> = top.iter().map(|&(i, _)| i).collect();
    let mut winners = Vec::new();
    timed("shard.get_many.winners", &mut || {
        winners = reader.get_many(&idx)?;
        Ok(())
    })?;
    Ok((top, winners))
}

fn serve_screen_layers(
    deck: &Deck,
    reader: &DeckReader,
    manifest: &Path,
    args: &Args,
    r: &mut Report,
    tr: &mut Tracer,
) -> Result<Table, ZsmilesError> {
    let window = (args.seconds * 0.15).clamp(0.5, 3.0);
    let server = serve::start(manifest, true)?;
    let addr = server.addr();

    let (mut a_win, mut b_win) = (Windows::new(window, 1 << 15), Windows::new(window, 0));
    let untraced = serve::run(
        addr,
        deck,
        args.seed,
        window,
        Bulk::Screen,
        &mut a_win,
        &mut b_win,
    );
    r.count(untraced.ops(), untraced.failed());
    let sweep_ns: Vec<f64> = untraced.sweeps.iter().map(|s| s.secs * 1e9).collect();

    // Connection B alone, so worker time and heap growth are the sweeps'.
    let tasks0 = sched::tasks();
    let win = alloc::Window::open();
    let alone = serve::run(
        addr,
        deck,
        args.seed ^ 1,
        window,
        Bulk::ScreenAlone,
        &mut a_win,
        &mut b_win,
    );
    let heap = win.peak_mb();
    let tasks1 = sched::tasks();
    drop(server);
    r.count(alone.ops(), alone.failed());
    let worker_ns = sched::grouped_delta(&tasks0, &tasks1, thread_group)
        .iter()
        .find(|(k, _)| *k == "worker")
        .map(|(_, s)| s.run_ns)
        .unwrap_or_default();
    let sweeps = alone.sweeps.len().max(1) as f64;
    r.metric(
        "cpu.worker_busy_s_per_sweep",
        worker_ns as f64 / 1e9 / sweeps,
        "s",
    );
    r.metric("sweep.heap_mb", heap, "MB");

    // In process: the first served sweep's pocket, once untraced and
    // once layer by layer; both must equal the wire answer.
    let first = untraced.sweeps.first().or(alone.sweeps.first());
    let pattern = first.map_or(args.seed, |s| s.pocket_seed).to_string();
    let t0 = Instant::now();
    let direct = sweep(reader, &pattern, None)?;
    let direct_ns = t0.elapsed().as_nanos() as f64;
    let root = tr.open("sweep", None);
    let layered = sweep(reader, &pattern, Some((&mut *tr, root)))?;
    tr.close(root);
    let (top, winners) = &layered;
    let wire_ok = first.is_some_and(|s| {
        s.hits.len() == top.len()
            && s.hits
                .iter()
                .zip(top)
                .zip(winners)
                .all(|((h, &(i, score)), w)| {
                    h.index == i as u64 && h.score_bits == score.to_bits() && &h.smiles == w
                })
    });
    let ok = wire_ok && layered == direct;
    r.check(
        ok,
        "layered sweep equals the untraced sweep and the wire TOP_HITS answer",
    );
    r.count(2, u64::from(!ok));

    // Per sweep: the batch spans summed over the deck's batches.
    let batches = deck.len().div_ceil(SWEEP_BATCH) as f64;
    let per_sweep = |name: &str| match name {
        "shard.get_range" | "vscreen.score" => tr.mean(name) * batches,
        _ => tr.mean(name),
    };
    let n = deck.len() as f64;
    r.metric(
        "shard.get_range_ns_per_line",
        per_sweep("shard.get_range") / n,
        "ns",
    );
    r.metric(
        "vscreen.score_ns_per_line",
        per_sweep("vscreen.score") / n,
        "ns",
    );
    r.metric("vscreen.top_k_ms", per_sweep("vscreen.top_k") / 1e6, "ms");
    println!(
        "   serve_screen: in-process sweep {:.1} ms untraced, {:.1} ms traced \
         ({:.1} ms outside child spans)",
        direct_ns / 1e6,
        tr.mean("sweep") / 1e6,
        tr.mean_self("sweep") / 1e6
    );
    Ok(Table {
        workload: Workload::ServeScreen,
        rows: [
            "shard.get_range",
            "vscreen.score",
            "vscreen.top_k",
            "shard.get_many.winners",
        ]
        .into_iter()
        .map(|name| (name, per_sweep(name)))
        .collect(),
        untraced_ns: median(&sweep_ns),
        overhead_pct: overhead_pct(tr.mean("sweep"), direct_ns),
        remainder: "worker hand-off, hit-row encoding and the socket, and sharing the \
                    CPUs with connection A's gets",
    })
}

pub fn run(args: &Args) -> Result<Report, ZsmilesError> {
    let mut tr = Tracer::new();
    let deck = Deck::generate(args.lines, args.seed);
    let mut r = Report {
        deck_bytes: deck.raw_bytes().len(),
        ..Default::default()
    };
    let packed = deck::pack(&deck, &args.work_dir.join("deck"), crate::nproc())?;
    let reader = deck::open(&packed)?;

    let tables = [
        pack_layers(&deck, &args.work_dir, &mut r, &mut tr)?,
        get_layers(&deck, &reader, args.seed, &mut r, &mut tr),
        serve_get_layers(&deck, &reader, &packed.manifest, args, &mut r, &mut tr)?,
        serve_screen_layers(&deck, &reader, &packed.manifest, args, &mut r, &mut tr)?,
    ];
    println!(
        "per-layer table: {} spans recorded (run named '{}')",
        tr.spans.len(),
        args.workload.name()
    );
    for t in &tables {
        t.report(&mut r);
    }
    Ok(r)
}
