//! Throughput harness: the recorded trajectory every perf PR appends to.
//!
//! Times the paper's Fig. 3 fast path end to end on a seeded molgen deck —
//! serial encode through *all three* matchers (the right-to-left
//! `ReverseAutomaton` kernel — per line and through the buffer loop —
//! and the reference sweep, called directly, over the flat
//! `DenseAutomaton` and the node `Trie`, measured in the same run so
//! every speedup is an observation, not a claim — on the base *and* wide
//! flavours), worker-pool parallel encode
//! and decode, serial decode,
//! streaming pack through the out-of-core `ArchiveWriter` (single-file,
//! sharded-serial, and sharded-parallel — cross-shard jobs on the worker
//! pool, byte-identical to the serial pack, against real files), and
//! random `get()` against a real on-disk `.zsa` through all three read
//! paths: plain file I/O, zero-copy `MmapSource`, and the shared sharded
//! `BlockCache` — plus the *served* read path: a live `zsmiles-serve`
//! process on a loopback TCP socket, random gets from 1 / 8 / 64
//! concurrent clients with throughput and p50/p99 tail latency per
//! level — plus the robustness paths: the `check` deep verify (open +
//! CRC + full decode of every shard) as an MB/s rate, and the served
//! random-get rate with one shard quarantined (degraded mode) next to
//! the healthy rate on the same surviving lines, so degraded dispatch
//! overhead is a measured number — and writes the numbers (MB/s and
//! ns/op) as JSON. It also records the *dictionary fitting* story: the
//! compression ratio of the shipped `default.dct` on this deck next to a
//! dictionary trained on the deck itself through `train::BaseBuilder`
//! (cost-guided selection on a seeded reservoir sample), asserting the
//! trained dictionary never loses on its own corpus.
//!
//! ```text
//! cargo run --release -p bench --bin throughput -- \
//!     [--lines 50000] [--seed 12648430] [--threads N] [--reps 3] \
//!     [--gets 20000] [--out BENCH_10.json]
//! ```
//!
//! Every measurement is best-of-`reps` wall time (per-rep byte counts are
//! identical by construction, so best-of is the least-noise estimator).
//! The run also *asserts* the identities the numbers depend on: both
//! matchers emit byte-identical streams on both flavours, parallel output
//! equals serial output, decode restores the deck, mmap-backed and
//! cache-backed reads return exactly the file-backed bytes, and the
//! parallel sharded pack's files are byte-identical to the serial pack's.

use bench::reference_encode_buffer;
use molgen::Dataset;
use std::sync::Arc;
use std::time::Instant;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::serve::{Executor, QueryClient, Request, ServeOptions, Server};
use zsmiles_core::sp;
use zsmiles_core::train::{BaseBuilder, DictBuilder as _, TrainCorpus};
use zsmiles_core::{
    compress_parallel_dyn, decompress_parallel_dyn, ArchiveReader, ArchiveWriter, BlockCache,
    CachedSource, Compressor, Decompressor, DictBuilder, Dictionary, FileSink, FileSource,
    MmapSource, ShardPolicy, ShardedReader, ShardedWriter, TrainOptions, WideCompressor,
    WideDictBuilder, WriterOptions,
};

struct Opts {
    lines: usize,
    seed: u64,
    threads: usize,
    reps: usize,
    gets: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        lines: 50_000,
        seed: 0xC0FFEE,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        reps: 3,
        gets: 20_000,
        out: "BENCH_10.json".to_string(),
    };
    let mut i = 0;
    while i < argv.len() {
        let val = argv.get(i + 1);
        match argv[i].as_str() {
            "--lines" => o.lines = val.and_then(|v| v.parse().ok()).unwrap_or(o.lines),
            "--seed" => o.seed = val.and_then(|v| v.parse().ok()).unwrap_or(o.seed),
            "--threads" => o.threads = val.and_then(|v| v.parse().ok()).unwrap_or(o.threads),
            "--reps" => o.reps = val.and_then(|v| v.parse().ok()).unwrap_or(o.reps),
            "--gets" => o.gets = val.and_then(|v| v.parse().ok()).unwrap_or(o.gets),
            "--out" => o.out = val.cloned().unwrap_or(o.out),
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    o.reps = o.reps.max(1);
    o
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One measurement: throughput relative to `bytes` payload over `lines`.
struct Rate {
    mb_per_s: f64,
    ns_per_line: f64,
}

fn rate(bytes: usize, lines: usize, secs: f64) -> Rate {
    Rate {
        mb_per_s: bytes as f64 / 1e6 / secs,
        ns_per_line: secs * 1e9 / lines.max(1) as f64,
    }
}

fn json_rate(name: &str, r: &Rate) -> String {
    format!(
        "  \"{name}\": {{ \"mb_per_s\": {:.2}, \"ns_per_line\": {:.1} }}",
        r.mb_per_s, r.ns_per_line
    )
}

fn main() {
    let o = parse_opts();
    eprintln!(
        "throughput: {} lines, seed {:#x}, {} threads, best of {} rep(s)",
        o.lines, o.seed, o.threads, o.reps
    );

    let deck = Dataset::generate_mixed(o.lines, o.seed);
    let input = deck.as_bytes().to_vec();
    let payload: usize = deck.payload_bytes();

    // Preprocessing off: the harness times the codec (matcher walk + DP +
    // emit / table expand), not the SMILES ring renumberer.
    let dict = DictBuilder {
        preprocess: false,
        ..Default::default()
    }
    .train(deck.iter())
    .expect("training the base dictionary");
    let wide = WideDictBuilder {
        base: DictBuilder {
            preprocess: false,
            ..Default::default()
        },
        wide_size: 64,
    }
    .train(deck.iter())
    .expect("training the wide dictionary");

    // The reference encodes: preprocessing as the dictionary declares,
    // then the reference sweep over the dense automaton or the node trie.
    let base_dense = |out: &mut Vec<u8>| {
        reference_encode_buffer(dict.preprocessed(), &input, out, |l, s, o| {
            sp::encode_line(dict.automaton(), l, s, o)
        })
    };
    let base_node = |out: &mut Vec<u8>| {
        reference_encode_buffer(dict.preprocessed(), &input, out, |l, s, o| {
            sp::encode_line(dict.trie(), l, s, o)
        })
    };
    let wide_dense = |out: &mut Vec<u8>| {
        reference_encode_buffer(wide.preprocessed(), &input, out, |l, s, o| {
            zsmiles_core::wide::encode_line(wide.automaton(), l, s, o)
        })
    };
    let wide_node = |out: &mut Vec<u8>| {
        reference_encode_buffer(wide.preprocessed(), &input, out, |l, s, o| {
            zsmiles_core::wide::encode_line(wide.trie(), l, s, o)
        })
    };

    // ---- identity assertions the measurements rely on --------------------
    // The encoder runs the reverse automaton; pin its bytes against the
    // dense automaton and the node trie in this run, so the speedup rows
    // below compare identical work.
    let mut z_enc = Vec::new();
    let stats = Compressor::new(&dict).compress_buffer(&input, &mut z_enc);
    let mut z_dense = Vec::new();
    base_dense(&mut z_dense);
    assert_eq!(z_enc, z_dense, "reverse automaton ≠ dense automaton output");
    let mut z_node = Vec::new();
    base_node(&mut z_node);
    assert_eq!(z_enc, z_node, "reverse automaton ≠ node trie output");

    let any = AnyDictionary::Base(Box::new(dict.clone()));
    let (z_par, _) = compress_parallel_dyn(&any, &input, o.threads);
    assert_eq!(z_par, z_enc, "parallel ≠ serial (base)");

    let mut zw_serial = Vec::new();
    WideCompressor::new(&wide).compress_buffer(&input, &mut zw_serial);
    let any_wide = AnyDictionary::Wide(Box::new(wide.clone()));
    let (zw_par, _) = compress_parallel_dyn(&any_wide, &input, o.threads);
    assert_eq!(zw_par, zw_serial, "parallel ≠ serial (wide)");

    // The wide flavour runs its own reverse automaton; the dense
    // automaton and the node trie stay the references it is pinned
    // against.
    let mut zw_dense = Vec::new();
    wide_dense(&mut zw_dense);
    assert_eq!(
        zw_dense, zw_serial,
        "wide reverse automaton ≠ dense automaton"
    );
    let mut zw_node = Vec::new();
    wide_node(&mut zw_node);
    assert_eq!(zw_node, zw_serial, "wide reverse automaton ≠ node trie");

    let mut back = Vec::new();
    Decompressor::new(&dict)
        .decompress_buffer(&z_enc, &mut back)
        .expect("decode");
    assert_eq!(back, input, "decode does not restore the deck");

    // ---- measurements ----------------------------------------------------
    let mut out_buf = Vec::with_capacity(z_enc.len() + 16);
    let enc_node = time_best(o.reps, || {
        out_buf.clear();
        base_node(&mut out_buf);
    });
    let enc_dense = time_best(o.reps, || {
        out_buf.clear();
        base_dense(&mut out_buf);
    });
    // The reverse automaton through the one-line entry point, beside the
    // buffer loop below, so the loop's own cost is a measured delta.
    let enc_reverse_lines = time_best(o.reps, || {
        out_buf.clear();
        let mut c = Compressor::new(&dict);
        for line in input.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            c.compress_line(line, &mut out_buf);
            out_buf.push(b'\n');
        }
    });
    // The production default: the reverse automaton through the buffer
    // loop.
    let enc_batched = time_best(o.reps, || {
        out_buf.clear();
        Compressor::new(&dict).compress_buffer(&input, &mut out_buf);
    });
    let enc_par = time_best(o.reps, || {
        let _ = compress_parallel_dyn(&any, &input, o.threads);
    });
    let wide_enc_batched = time_best(o.reps, || {
        out_buf.clear();
        WideCompressor::new(&wide).compress_buffer(&input, &mut out_buf);
    });
    let wide_enc_dense = time_best(o.reps, || {
        out_buf.clear();
        wide_dense(&mut out_buf);
    });
    let wide_enc_node = time_best(o.reps, || {
        out_buf.clear();
        wide_node(&mut out_buf);
    });
    let mut back_buf = Vec::with_capacity(input.len() + 16);
    let dec_serial = time_best(o.reps, || {
        back_buf.clear();
        Decompressor::new(&dict)
            .decompress_buffer(&z_enc, &mut back_buf)
            .expect("decode");
    });
    let dec_par = time_best(o.reps, || {
        let _ = decompress_parallel_dyn(&any, &z_enc, o.threads).expect("decode");
    });

    // Streaming pack through the out-of-core writer, single-file and
    // sharded, against real files — the end-to-end "deck to container"
    // rate (compress + index + write), what a pack job actually sustains.
    let tmp = std::env::temp_dir().join(format!("zsmiles_throughput_pack_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("creating the pack scratch dir");
    let single_path = tmp.join("deck.zsa");
    let pack_single = time_best(o.reps, || {
        let sink = FileSink::create(&single_path).expect("creating the pack sink");
        let mut w = ArchiveWriter::with_options(
            sink,
            any.clone(),
            WriterOptions {
                threads: o.threads,
                ..Default::default()
            },
        )
        .expect("starting the streaming writer");
        w.write(&input).expect("streaming the deck");
        let (_, info) = w.finish().expect("finalizing the container");
        assert_eq!(info.lines, o.lines, "streamed pack stores every line");
    });
    // Sharded pack, serial (threads = 1 streams one shard at a time) and
    // parallel (cross-shard jobs on the worker pool) — each into its own
    // directory so the outputs can be compared file-for-file.
    let shard_lines = (o.lines / 8).max(1) as u64;
    let serial_dir = tmp.join("serial");
    let par_dir = tmp.join("par");
    std::fs::create_dir_all(&serial_dir).expect("creating the serial shard dir");
    std::fs::create_dir_all(&par_dir).expect("creating the parallel shard dir");
    let manifest_path = serial_dir.join("deck.zsm");
    let par_manifest_path = par_dir.join("deck.zsm");
    let pack_shards = |manifest: &std::path::Path, threads: usize| {
        let mut w = ShardedWriter::create(
            manifest,
            any.clone(),
            ShardPolicy::by_lines(shard_lines),
            WriterOptions {
                threads,
                ..Default::default()
            },
        )
        .expect("starting the sharded writer");
        w.write(&input).expect("streaming the deck");
        let info = w.finish().expect("finalizing the shards");
        assert_eq!(
            info.lines as usize, o.lines,
            "sharded pack stores every line"
        );
        info
    };
    let par_threads = o.threads.max(4);
    let pack_sharded = time_best(o.reps, || {
        pack_shards(&manifest_path, 1);
    });
    let mut par_info = None;
    let pack_sharded_par = time_best(o.reps, || {
        par_info = Some(pack_shards(&par_manifest_path, par_threads));
    });
    let par_info = par_info.expect("at least one parallel rep ran");
    // The parallel pack is byte-identical to the serial pack: same
    // manifest, same shard files, bit for bit.
    assert_eq!(
        std::fs::read(&manifest_path).expect("serial manifest"),
        std::fs::read(&par_manifest_path).expect("parallel manifest"),
        "parallel sharded manifest ≠ serial"
    );
    for shard in &par_info.shards {
        assert_eq!(
            std::fs::read(serial_dir.join(&shard.file)).expect("serial shard"),
            std::fs::read(par_dir.join(&shard.file)).expect("parallel shard"),
            "parallel shard {} ≠ serial",
            shard.file
        );
    }
    // The sharded layout must read back identically to the single file.
    {
        let single = ArchiveReader::open(&single_path).expect("opening the single pack");
        let sharded = ShardedReader::open(&manifest_path).expect("opening the manifest");
        assert_eq!(single.len(), sharded.len());
        for i in [0usize, o.lines / 2, o.lines - 1] {
            assert_eq!(
                single.get(i).expect("single get"),
                sharded.get(i).expect("sharded get"),
                "sharded ≠ single at line {i}"
            );
        }
    }

    // ---- dictionary fitting: shipped default vs trained-on-deck ----------
    // The paper's shared-dictionary story says one `.dct` serves any deck;
    // the train subsystem's story is that fitting it to *this* deck can
    // only help. Record both ratios (same deck, each dictionary with its
    // own preprocessing setting) and hold the trained one to it.
    let t_train = Instant::now();
    let sample = TrainCorpus::sample(&input[..], 2048, o.seed).expect("sampling the deck");
    let trained_any = BaseBuilder {
        opts: TrainOptions {
            sample_lines: 2048,
            seed: o.seed,
            ..TrainOptions::default()
        },
    }
    .train(&sample)
    .expect("training on the deck")
    .into_dictionary()
    .expect("base model");
    let train_secs = t_train.elapsed().as_secs_f64();
    let AnyDictionary::Base(trained_dict) = &trained_any else {
        unreachable!()
    };
    let mut z_default = Vec::new();
    let default_stats =
        Compressor::new(Dictionary::builtin()).compress_buffer(&input, &mut z_default);
    let mut z_trained = Vec::new();
    let trained_stats = Compressor::new(trained_dict).compress_buffer(&input, &mut z_trained);
    assert!(
        trained_stats.ratio() <= default_stats.ratio() + 1e-9,
        "trained dictionary ({:.4}) must not lose to default.dct ({:.4}) on its own corpus",
        trained_stats.ratio(),
        default_stats.ratio()
    );

    // Random access against a real file through the out-of-core reader.
    let zsa = std::env::temp_dir().join(format!("zsmiles_throughput_{}.zsa", std::process::id()));
    zsmiles_core::Archive::pack(any.clone(), &input, o.threads)
        .save(&zsa)
        .expect("packing the archive");
    let reader = ArchiveReader::open(&zsa).expect("opening the archive");
    // Seeded xorshift so the access pattern is reproducible.
    let mut state = o.seed | 1;
    let mut order = Vec::with_capacity(o.gets);
    for _ in 0..o.gets {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.push((state % deck.len().max(1) as u64) as usize);
    }
    let get_secs = time_best(o.reps, || {
        for &i in &order {
            let line = reader.get(i).expect("random get");
            std::hint::black_box(&line);
        }
    });

    // The same access pattern through the zero-copy mmap read path. On
    // platforms without the mmap binding this transparently measures the
    // file-backed fallback (bytes_mapped reports 0 there).
    let mmap_reader = ArchiveReader::from_source(MmapSource::open(&zsa).expect("mapping the file"))
        .expect("opening the mapped archive");
    for &i in order.iter().take(512) {
        assert_eq!(
            mmap_reader.get(i).expect("mmap get"),
            reader.get(i).expect("file get"),
            "mmap read ≠ file read at line {i}"
        );
    }
    let mmap_get_secs = time_best(o.reps, || {
        for &i in &order {
            let line = mmap_reader.get(i).expect("mmap random get");
            std::hint::black_box(&line);
        }
    });
    let bytes_mapped = mmap_reader.source().bytes_mapped();
    drop(mmap_reader);

    // And through the shared sharded block cache (a private pool so the
    // hit/miss numbers are this run's alone). After the first sweep the
    // archive is resident, so the steady-state rate is mostly hits.
    let cache = Arc::new(BlockCache::new(64 << 10, 32 << 20));
    let cached_reader = ArchiveReader::from_source(CachedSource::with_cache(
        FileSource::open(&zsa).expect("reopening the archive"),
        Arc::clone(&cache),
    ))
    .expect("opening the cached archive");
    for &i in order.iter().take(512) {
        assert_eq!(
            cached_reader.get(i).expect("cached get"),
            reader.get(i).expect("file get"),
            "cached read ≠ file read at line {i}"
        );
    }
    let cached_get_secs = time_best(o.reps, || {
        for &i in &order {
            let line = cached_reader.get(i).expect("cached random get");
            std::hint::black_box(&line);
        }
    });
    let (cache_hits, cache_misses) = (
        cached_reader.source().hits(),
        cached_reader.source().misses(),
    );
    let cache_hit_rate = cache.stats().hit_rate().unwrap_or(0.0);
    drop(cached_reader);

    // ---- concurrent serving: random gets over loopback TCP ---------------
    // The same access pattern through a live `zsmiles-serve` process:
    // throughput and tail latency at 1 / 8 / 64 / 256 concurrent
    // clients, under both executors (the poll(2)+worker-pool event loop
    // and the legacy thread-per-connection model), at pipeline depth 1
    // (one request in flight per connection — the PR 9 protocol) and
    // depth 16 (pipelined). Every cell splits the same total op budget,
    // so the rows compare aggregate service rates at equal work.
    // Pipelined latency is measured submission-to-response, so it
    // includes time queued in the client's own window.
    let serve_rows = {
        let mut rows: Vec<(&str, usize, usize, usize, f64, u64, u64)> = Vec::new();
        for (exec_name, executor) in [
            ("threaded", Executor::Threaded),
            ("pooled", Executor::Pooled),
        ] {
            let handle = Server::start(
                &zsa,
                "127.0.0.1:0",
                ServeOptions {
                    max_connections: 300,
                    executor,
                    ..Default::default()
                },
            )
            .expect("starting the query server");
            let addr = handle.addr();
            // Byte-identity spot check: served reads are direct reads,
            // sequentially and pipelined.
            {
                let mut c = QueryClient::connect(addr).expect("connecting the check client");
                for &i in order.iter().take(256) {
                    assert_eq!(
                        c.get(i as u64).expect("served get"),
                        reader.get(i).expect("file get"),
                        "served read ≠ direct read at line {i} ({exec_name})"
                    );
                }
                let picks: Vec<u64> = order.iter().take(256).map(|&i| i as u64).collect();
                let piped = c
                    .get_many_pipelined(&picks, 16)
                    .expect("pipelined spot check");
                for (&i, bytes) in picks.iter().zip(&piped) {
                    assert_eq!(
                        *bytes,
                        reader.get(i as usize).expect("file get"),
                        "pipelined read ≠ direct read at line {i} ({exec_name})"
                    );
                }
            }
            for &clients in &[1usize, 8, 64, 256] {
                for &depth in &[1usize, 16] {
                    let per_client = (o.gets / clients).max(1);
                    let total_ops = per_client * clients;
                    let mut best_wall = f64::INFINITY;
                    let mut latencies: Vec<u64> = Vec::new();
                    for _ in 0..o.reps {
                        let t0 = Instant::now();
                        let mut rep_lat: Vec<u64> = Vec::with_capacity(total_ops);
                        std::thread::scope(|scope| {
                            let workers: Vec<_> = (0..clients)
                                .map(|w| {
                                    let order = &order;
                                    scope.spawn(move || {
                                        let mut c = QueryClient::connect(addr)
                                            .expect("bench client connect");
                                        let mut pipe = c.pipeline(depth);
                                        let mut lat = Vec::with_capacity(per_client);
                                        let mut submitted =
                                            std::collections::VecDeque::with_capacity(depth);
                                        for k in 0..per_client {
                                            let i = order[(w * per_client + k) % order.len()];
                                            submitted.push_back(Instant::now());
                                            if let Some(resp) = pipe
                                                .send(&Request::Get { line: i as u64 })
                                                .expect("pipelined send")
                                            {
                                                let t: Instant =
                                                    submitted.pop_front().expect("submit time");
                                                lat.push(t.elapsed().as_nanos() as u64);
                                                std::hint::black_box(&resp);
                                            }
                                        }
                                        while let Some(resp) = pipe.recv().expect("pipelined drain")
                                        {
                                            let t: Instant =
                                                submitted.pop_front().expect("submit time");
                                            lat.push(t.elapsed().as_nanos() as u64);
                                            std::hint::black_box(&resp);
                                        }
                                        lat
                                    })
                                })
                                .collect();
                            for w in workers {
                                rep_lat.extend(w.join().expect("bench client thread"));
                            }
                        });
                        let wall = t0.elapsed().as_secs_f64();
                        if wall < best_wall {
                            best_wall = wall;
                            latencies = rep_lat;
                        }
                    }
                    latencies.sort_unstable();
                    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
                    rows.push((
                        exec_name,
                        clients,
                        depth,
                        total_ops,
                        total_ops as f64 / best_wall,
                        pct(50),
                        pct(99),
                    ));
                }
            }
            handle.shutdown();
        }
        rows
    };

    // ---- deep verify: the fsck walk as a rate -----------------------------
    // What `zsmiles check` performs per shard: open, CRC sweep, and a
    // full decode of every line — the cost of trusting a deck again.
    let verify_secs = time_best(o.reps, || {
        let report = zsmiles_core::check_deck(&manifest_path).expect("checking the deck");
        assert!(report.is_ok(), "bench deck is sound");
    });
    let r_verify = rate(payload, o.lines, verify_secs);

    // ---- degraded-mode dispatch overhead ----------------------------------
    // Quarantine the last shard of the serial sharded deck and re-measure
    // the single-client served random-get rate on the *surviving* lines,
    // against the healthy rate on the same lines: the ratio is the cost
    // of the degraded routing (the quarantined-shard bounds check plus
    // the Option indirection), not of the missing data.
    let shards = &par_info.shards;
    assert!(
        shards.len() >= 2,
        "degraded bench needs at least two shards"
    );
    let cut = o.lines - shards.last().expect("last shard").lines as usize;
    let survivors: Vec<usize> = order.iter().copied().filter(|&i| i < cut).collect();
    let run_gets = |addr: std::net::SocketAddr, survivors: &[usize]| {
        let mut c = QueryClient::connect(addr).expect("degraded bench client");
        let secs = time_best(o.reps, || {
            for &i in survivors {
                let line = c.get(i as u64).expect("served get on a healthy shard");
                std::hint::black_box(&line);
            }
        });
        survivors.len() as f64 / secs
    };
    let handle = Server::start(&manifest_path, "127.0.0.1:0", ServeOptions::default())
        .expect("starting the healthy server");
    let healthy_ops_per_s = run_gets(handle.addr(), &survivors);
    handle.shutdown();
    let last_file = serial_dir.join(&shards.last().expect("last shard").file);
    std::fs::rename(&last_file, last_file.with_extension("zsa.quarantined"))
        .expect("quarantining the last shard");
    let handle = Server::start(
        &manifest_path,
        "127.0.0.1:0",
        ServeOptions {
            degraded: true,
            ..Default::default()
        },
    )
    .expect("starting the degraded server");
    {
        let mut c = QueryClient::connect(handle.addr()).expect("degraded probe client");
        let h = c.health().expect("health probe");
        assert!(
            !h.ok && h.quarantined_shards == 1,
            "the deck serves degraded"
        );
        assert!(
            c.get((o.lines - 1) as u64).is_err(),
            "a quarantined line is a typed error"
        );
    }
    let degraded_ops_per_s = run_gets(handle.addr(), &survivors);
    handle.shutdown();
    let degraded_overhead = healthy_ops_per_s / degraded_ops_per_s;
    std::fs::remove_dir_all(&tmp).ok();

    let serve_json = serve_rows
        .iter()
        .map(|(executor, clients, depth, ops, ops_per_s, p50, p99)| {
            format!(
                "    {{ \"executor\": \"{executor}\", \"clients\": {clients}, \
                 \"depth\": {depth}, \"ops\": {ops}, \"ops_per_s\": {ops_per_s:.0}, \
                 \"p50_ns\": {p50}, \"p99_ns\": {p99} }}"
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    drop(reader);
    std::fs::remove_file(&zsa).ok();

    let r_node = rate(payload, o.lines, enc_node);
    let r_dense = rate(payload, o.lines, enc_dense);
    let r_reverse = rate(payload, o.lines, enc_reverse_lines);
    let r_batched = rate(payload, o.lines, enc_batched);
    let r_par = rate(payload, o.lines, enc_par);
    let r_wide_node = rate(payload, o.lines, wide_enc_node);
    let r_wide_dense = rate(payload, o.lines, wide_enc_dense);
    let r_wide_batched = rate(payload, o.lines, wide_enc_batched);
    let r_dec = rate(payload, o.lines, dec_serial);
    let r_dec_par = rate(payload, o.lines, dec_par);
    let r_pack_single = rate(payload, o.lines, pack_single);
    let r_pack_sharded = rate(payload, o.lines, pack_sharded);
    let r_pack_sharded_par = rate(payload, o.lines, pack_sharded_par);
    let get_ns = get_secs * 1e9 / o.gets.max(1) as f64;
    let mmap_get_ns = mmap_get_secs * 1e9 / o.gets.max(1) as f64;
    let cached_get_ns = cached_get_secs * 1e9 / o.gets.max(1) as f64;
    let speedup = enc_node / enc_batched;
    let reverse_vs_dense = enc_dense / enc_batched;
    let wide_speedup = wide_enc_node / wide_enc_batched;

    let json = format!
    (
        "{{\n  \"bench\": \"throughput\",\n  \"pr\": 10,\n  \"deck\": \"mixed\",\n  \"lines\": {},\n  \"seed\": {},\n  \"payload_bytes\": {},\n  \"compressed_bytes\": {},\n  \"ratio\": {:.4},\n  \"threads\": {},\n  \"reps\": {},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n  \"parallel_pack_threads\": {},\n  \"shard_lines\": {},\n  \"random_access_get\": {{ \"ns_per_op\": {:.1}, \"ops\": {} }},\n  \"mmap_random_get\": {{ \"ns_per_op\": {:.1}, \"ops\": {}, \"bytes_mapped\": {} }},\n  \"cached_random_get\": {{ \"ns_per_op\": {:.1}, \"ops\": {}, \"hits\": {}, \"misses\": {}, \"pool_hit_rate\": {:.4} }},\n  \"concurrent_serve\": [\n{}\n  ],\n  \"served_degraded\": {{ \"healthy_ops_per_s\": {:.0}, \"degraded_ops_per_s\": {:.0}, \"overhead\": {:.3}, \"survivor_ops\": {} }},\n  \"encode_speedup_reverse_vs_node_trie\": {:.3},\n  \"encode_speedup_reverse_vs_dense\": {:.3},\n  \"wide_encode_speedup_reverse_vs_node_trie\": {:.3},\n  \"dict_fitting\": {{ \"ratio_default_dict\": {:.4}, \"ratio_trained_dict\": {:.4}, \"train_sample_lines\": {}, \"train_secs\": {:.3} }}\n}}\n",
        o.lines,
        o.seed,
        payload,
        z_enc.len(),
        stats.ratio(),
        o.threads,
        o.reps,
        json_rate("serial_encode_node_trie", &r_node),
        json_rate("serial_encode_dense", &r_dense),
        json_rate("serial_encode_reverse", &r_reverse),
        json_rate("batched_encode", &r_batched),
        json_rate("serial_encode", &r_batched),
        json_rate("parallel_encode", &r_par),
        json_rate("wide_serial_encode_node_trie", &r_wide_node),
        json_rate("wide_serial_encode_dense", &r_wide_dense),
        json_rate("wide_serial_encode_reverse", &r_wide_batched),
        json_rate("wide_serial_encode", &r_wide_batched),
        json_rate("serial_decode", &r_dec),
        json_rate("parallel_decode", &r_dec_par),
        json_rate("streaming_pack_single", &r_pack_single),
        json_rate("streaming_pack_sharded", &r_pack_sharded),
        json_rate("streaming_pack_sharded_parallel", &r_pack_sharded_par),
        json_rate("deep_verify", &r_verify),
        par_threads,
        shard_lines,
        get_ns,
        o.gets,
        mmap_get_ns,
        o.gets,
        bytes_mapped,
        cached_get_ns,
        o.gets,
        cache_hits,
        cache_misses,
        cache_hit_rate,
        serve_json,
        healthy_ops_per_s,
        degraded_ops_per_s,
        degraded_overhead,
        survivors.len(),
        speedup,
        reverse_vs_dense,
        wide_speedup,
        default_stats.ratio(),
        trained_stats.ratio(),
        sample.len(),
        train_secs,
    );
    std::fs::write(&o.out, &json).expect("writing the result file");
    print!("{json}");
    eprintln!(
        "encode {:.1} MB/s reverse buffer loop (per-line reverse {:.1}, dense {:.1}, node trie {:.1}; {:.2}x vs node, {:.2}x vs dense), wide {:.1} MB/s ({:.2}x), parallel {:.1} MB/s; decode {:.1} MB/s; pack {:.1} MB/s single / {:.1} MB/s sharded / {:.1} MB/s sharded-parallel; get {:.0} ns/op file, {:.0} ns/op mmap, {:.0} ns/op cached ({:.1}% pool hits); ratio default {:.4} vs trained {:.4} -> {}",
        r_batched.mb_per_s, r_reverse.mb_per_s, r_dense.mb_per_s, r_node.mb_per_s, speedup,
        reverse_vs_dense, r_wide_batched.mb_per_s, wide_speedup,
        r_par.mb_per_s, r_dec.mb_per_s, r_pack_single.mb_per_s, r_pack_sharded.mb_per_s,
        r_pack_sharded_par.mb_per_s, get_ns, mmap_get_ns, cached_get_ns, cache_hit_rate * 100.0,
        default_stats.ratio(), trained_stats.ratio(), o.out
    );
    for (executor, clients, depth, _, ops_per_s, p50, p99) in &serve_rows {
        eprintln!(
            "serve[{executor}]: {clients:>3} client(s) depth {depth:>2} -> {ops_per_s:.0} ops/s, \
             p50 {p50} ns, p99 {p99} ns"
        );
    }
    eprintln!(
        "deep verify {:.1} MB/s; degraded serve {degraded_ops_per_s:.0} ops/s vs healthy \
         {healthy_ops_per_s:.0} ops/s ({degraded_overhead:.3}x overhead, {} survivor gets)",
        r_verify.mb_per_s,
        survivors.len()
    );
    if speedup < 1.5 {
        eprintln!("WARNING: reverse-automaton speedup vs node trie below the 1.5x floor");
    }
    if reverse_vs_dense < 1.0 {
        eprintln!("WARNING: reverse-automaton encode slower than the dense automaton");
    }
}
