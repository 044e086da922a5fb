//! Subcommand implementations.

use crate::args::Args;
use molgen::{profiles, stats, Dataset};
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use zsmiles_core::engine::AnyDictionary;
use zsmiles_core::serve::{Executor, QueryClient, ServeOptions, Server};
use zsmiles_core::shard::{ShardPolicy, ShardedReader, ShardedWriter};
use zsmiles_core::train::{BaseBuilder, DictBuilder as _, TrainCorpus, WideBuilder};
use zsmiles_core::{
    check_deck, quarantine_shards, repair_deck, ArchiveReader, ArchiveSource, ArchiveWriter,
    AtomicFileSink, BlockCache, Decompressor, LineIndex, Prepopulation, RankStrategy, Selection,
    TrainOptions, WriterOptions,
};

/// The error a command stops with when the reader of its stdout has
/// gone (`zsmiles screen ... | head`). The binary exits 0 on it without
/// a message, as a stage of a pipeline should.
pub const STDOUT_CLOSED: &str = "stdout closed by its reader";

/// A failed write to stdout as a command error; a closed pipe is
/// [`STDOUT_CLOSED`].
fn stdout_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.to_string()
    } else {
        e.to_string()
    }
}

/// `println!` that returns the failed write from the command instead of
/// panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)?
    };
}

const USAGE: &str =
    "usage: zsmiles <gen|train|compress|decompress|pack|unpack|check|get|serve|query|screen|stats|inspect> [flags]
  gen        --profile gdb17|mediate|exscalate|mixed -n N [--seed S] -o out.smi
  train      -i train.smi|- -o dict.dct [--flavor base|wide] [--wide N]
             [--max-symbols N] [--sample-lines N] [--seed S]
             [--select cost|paper] [--lmin 2] [--lmax 12] [--min-count 4]
             [--prepopulation none|smiles-alphabet|printable-ascii] [--no-preprocess]
             (streams the corpus — '-' reads stdin — through seeded
              reservoir sampling, selects patterns by the actual
              shortest-path encode cost, and writes the magic-tagged .dct;
              --select paper keeps the paper's Algorithm-1 ranking;
              --wide N implies --flavor wide with N two-byte codes)
  compress   -i in.smi -d dict.dct -o out.zsmi [--threads N] [--index]
  decompress -i in.zsmi -d dict.dct -o out.smi [--threads N] [--postprocess]
  pack       -i in.smi (-d dict.dct | --train) -o out.zsa [--threads N]
             [--shard-lines N | --shard-bytes N] [--generation G]
             [--dict-out fitted.dct and the train flags above, with --train]
             (streams the input — '-' reads stdin — through the out-of-core
              writer in bounded memory; with a shard budget, -o names a .zsm
              manifest and shards land beside it as <stem>.NNNNN.zsa, and
              --threads N compresses N complete shards concurrently with
              byte-identical output;
              --train first fits the embedded dictionary to the deck being
              packed, so the input must be a re-readable file, not stdin;
              --generation G stamps a dataset generation onto the .zsm
              manifest — the serve command's flip requires each new deck
              to be newer than the one it replaces)
  unpack     -i in.zsa|in.zsm -o out.smi [--threads N] [--verify] [--verbose]
  check      --archive in.zsa|in.zsm [--repair] [--quarantine]
             (deep-verifies every container — header, dictionary, index,
              streaming CRC, a decode of every line, and each shard's
              manifest row — and prints a JSON report naming each finding;
              exits nonzero while any shard stays bad. --repair rewrites
              stale manifest rows from internally-sound shard files
              (metadata only, never invents payload); --quarantine moves
              damaged shards aside to <name>.quarantined so `serve
              --degraded` keeps answering for the rest of the deck)
  get        -i in.zsmi -d dict.dct --line K
  get        --archive in.zsa|in.zsm --line K [--count N] [--verify] [--verbose]
             (no dictionary or sidecar needed; reads only metadata + the
              lines asked for; archives are mmapped where the platform
              allows, else read through the shared block cache — --verbose
              reports bytes mapped, or the cache hit rate and evictions)
  serve      --archive in.zsa|in.zsm [--addr HOST:PORT] [--max-conns N] [--degraded]
             [--executor pooled|threaded] [--workers N] [--depth K]
             (holds the deck open and answers concurrent get/get_range/
              get_many/stats/top_hits clients over a length-prefixed
              binary TCP protocol; --addr defaults to 127.0.0.1:0 — an
              ephemeral port, printed on startup; a wire flip atomically
              swaps to a new dataset generation and a wire shutdown stops
              serving; --degraded tolerates quarantined shards — the rest
              of the deck serves and health reports degraded; the default
              pooled executor drives pipelined connections through one
              poll(2) loop plus --workers threads (0 = min(cores, 8)),
              keeping up to --depth requests in flight per connection;
              --executor threaded restores thread-per-connection)
  query      --addr HOST:PORT (--line K [--count N] | --many i,j,k [--depth K]
             | --top-hits N --pattern SEED | --stats | --health
             | --flip newdeck.zsm | --shutdown)
             (one request against a running serve process; --many with
              --depth K > 1 pipelines the fetches, K frames in flight;
              --top-hits ranks the whole served deck against pocket SEED
              server-side and prints index, score and SMILES per hit —
              byte-identical to a local screen over the same deck;
              --flip names a server-local archive path; --health exits
              nonzero when the served deck is degraded — a ready-made
              readiness probe)
  screen     -i deck.smi [--pocket-seed S] [--top K] [--threads N] [--scores out.tsv]
             (S is decimal or 0x-prefixed hex, as query --pattern takes it)
  stats      -i file.smi
  inspect    -d dict.dct [-i corpus.smi] [--dict-stats]
             (--dict-stats adds the symbol count, a pattern length
              histogram and — with -i — per-symbol hit coverage measured
              over the sample deck, for either flavour)
  inspect    --archive in.zsa|in.zsm [--verbose] [--verify]
             (reports the line index's wire version and its bytes per
              line — per shard too under --verbose)
Archive commands stream through the out-of-core reader and writer: a
multi-GB deck is never loaded into memory, packing or reading; pass
--verify to force a full CRC pass first. Wherever an archive path is
accepted, a .zsm shard manifest works too (sniffed by magic, lines
numbered globally across shards).
Dictionary files are sniffed by magic: both the paper's one-byte format and
the wide extension work everywhere a -d flag is accepted.";

pub fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    let args = Args::parse(rest)?;
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "train" => cmd_train(&args),
        "compress" => cmd_compress(&args),
        "decompress" => cmd_decompress(&args),
        "pack" => cmd_pack(&args),
        "unpack" => cmd_unpack(&args),
        "check" => cmd_check(&args),
        "get" => cmd_get(&args),
        "serve" => cmd_serve(&args),
        "query" => cmd_query(&args),
        "screen" => cmd_screen(&args),
        "stats" => cmd_stats(&args),
        "inspect" => cmd_inspect(&args),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let n = args.get_usize("--count", 10_000)?;
    let seed = args.get_u64("--seed", 42)?;
    let out = args.require("--output")?;
    let profile = args.get("--profile").unwrap_or("mixed");
    let ds = match profile {
        "gdb17" => Dataset::generate(profiles::GDB17, n, seed),
        "mediate" => Dataset::generate(profiles::MEDIATE, n, seed),
        "exscalate" => Dataset::generate(profiles::EXSCALATE, n, seed),
        "mixed" => Dataset::generate_mixed(n, seed),
        other => return Err(format!("unknown profile '{other}'")),
    };
    ds.save(Path::new(out)).map_err(|e| e.to_string())?;
    if !args.get_bool("--quiet") {
        outln!(
            "wrote {} lines ({} bytes) to {}",
            ds.len(),
            ds.total_bytes(),
            out
        );
    }
    Ok(())
}

/// Training configuration shared by `train` and `pack --train`.
fn train_options(args: &Args) -> Result<TrainOptions, String> {
    let name = args.get("--prepopulation").unwrap_or("smiles-alphabet");
    let prepopulation =
        Prepopulation::from_name(name).ok_or_else(|| format!("unknown prepopulation '{name}'"))?;
    let defaults = TrainOptions::default();
    let selection = match args.get("--select").unwrap_or("cost") {
        "cost" => Selection::CostGuided,
        "paper" => Selection::PaperRank(RankStrategy::PaperOverlap),
        other => return Err(format!("unknown selection '{other}' (cost|paper)")),
    };
    // `--dict-size` stays accepted as the historical spelling of
    // `--max-symbols`.
    let max_symbols = args
        .get("--max-symbols")
        .or_else(|| args.get("--dict-size"))
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("bad symbol budget '{v}'"))
        })
        .transpose()?
        .filter(|&v| v > 0);
    Ok(TrainOptions {
        lmin: args.get_usize("--lmin", defaults.lmin)?,
        lmax: args.get_usize("--lmax", defaults.lmax)?,
        prepopulation,
        preprocess: !args.get_bool("--no-preprocess"),
        max_symbols,
        min_count: args.get_usize("--min-count", defaults.min_count as usize)? as u32,
        sample_lines: args.get_usize("--sample-lines", defaults.sample_lines)?,
        seed: args.get_u64("--seed", defaults.seed)?,
        selection,
        ..defaults
    })
}

/// Stream the training corpus — a file or stdin (`-`) — through seeded
/// reservoir sampling. Memory is bounded by `--sample-lines`, never the
/// deck.
fn sample_corpus(input: &str, opts: &TrainOptions) -> Result<TrainCorpus, String> {
    let corpus = if input == "-" {
        TrainCorpus::sample(std::io::stdin().lock(), opts.sample_lines, opts.seed)
    } else {
        let f = std::fs::File::open(input).map_err(|e| e.to_string())?;
        TrainCorpus::sample(std::io::BufReader::new(f), opts.sample_lines, opts.seed)
    };
    corpus.map_err(|e| e.to_string())
}

/// Train a dictionary of the requested flavour on a sampled corpus.
fn train_dictionary(args: &Args, corpus: &TrainCorpus) -> Result<AnyDictionary, String> {
    let opts = train_options(args)?;
    let wide = args.get_usize("--wide", 0)?;
    let flavor = args
        .get("--flavor")
        .unwrap_or(if wide > 0 { "wide" } else { "base" });
    let model = match flavor {
        "base" => BaseBuilder { opts }.train(corpus),
        "wide" => WideBuilder {
            opts,
            wide_size: if wide > 0 { wide } else { 512 },
        }
        .train(corpus),
        other => return Err(format!("unknown flavor '{other}' (base|wide)")),
    }
    .map_err(|e| e.to_string())?;
    Ok(model
        .into_dictionary()
        .expect("ZSMILES builders produce dictionaries"))
}

fn describe_dict(dict: &AnyDictionary) -> String {
    match dict {
        AnyDictionary::Base(d) => format!(
            "{} patterns (+{} identity codes)",
            d.pattern_entries().count(),
            d.prepopulation().identity_bytes().len()
        ),
        AnyDictionary::Wide(d) => format!(
            "{} one-byte + {} two-byte codes",
            d.base_len(),
            d.wide_len()
        ),
    }
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let output = args.require("--output")?;
    let opts = train_options(args)?;
    let t0 = Instant::now();
    let corpus = sample_corpus(input, &opts)?;
    let dict = train_dictionary(args, &corpus)?;
    dict.save(Path::new(output)).map_err(|e| e.to_string())?;
    if !args.get_bool("--quiet") {
        outln!(
            "trained {} from {} of {} lines ({} selection, seed {}) in {:.2?} -> {}",
            describe_dict(&dict),
            corpus.len(),
            corpus.seen_lines(),
            opts.selection.name(),
            opts.seed,
            t0.elapsed(),
            output
        );
    }
    Ok(())
}

fn load_dict(args: &Args) -> Result<AnyDictionary, String> {
    let path = args.require("--dict")?;
    AnyDictionary::load(Path::new(path)).map_err(|e| e.to_string())
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let output = args.require("--output")?;
    let dict = load_dict(args)?;
    let threads = args.get_usize("--threads", 1)?;
    let data = std::fs::read(input).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let (out, cstats) = dict.compress_parallel(&data, threads);
    let dt = t0.elapsed();
    std::fs::write(output, &out).map_err(|e| e.to_string())?;
    if args.get_bool("--index") {
        let idx = LineIndex::build(&out);
        idx.save(Path::new(&format!("{output}.zsx")))
            .map_err(|e| e.to_string())?;
    }
    if !args.get_bool("--quiet") {
        outln!(
            "{} lines, {} -> {} bytes (ratio {:.3}) in {:.2?} [{} pp-failures]",
            cstats.lines,
            cstats.in_bytes,
            cstats.out_bytes,
            cstats.ratio(),
            dt,
            cstats.preprocess_failures
        );
    }
    Ok(())
}

fn cmd_decompress(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let output = args.require("--output")?;
    let dict = load_dict(args)?;
    let threads = args.get_usize("--threads", 1)?;
    let data = std::fs::read(input).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let out = match &dict {
        AnyDictionary::Base(d) if args.get_bool("--postprocess") => {
            // Post-processing path is line-by-line (serial; the renumber
            // is cheap next to I/O).
            let mut dc = Decompressor::new(d).with_postprocess(true);
            let mut out = Vec::with_capacity(data.len() * 3);
            dc.decompress_buffer(&data, &mut out)
                .map_err(|e| e.to_string())?;
            out
        }
        AnyDictionary::Wide(_) if args.get_bool("--postprocess") => {
            return Err("--postprocess is not supported with wide dictionaries".into());
        }
        dict => {
            let (out, _) = dict
                .decompress_parallel(&data, threads)
                .map_err(|e| e.to_string())?;
            out
        }
    };
    let dt = t0.elapsed();
    std::fs::write(output, &out).map_err(|e| e.to_string())?;
    if !args.get_bool("--quiet") {
        outln!("{} -> {} bytes in {:.2?}", data.len(), out.len(), dt);
    }
    Ok(())
}

/// Open the deck to pack (a file, or stdin for `-`). Opened *before* the
/// output is created, so a bad input path never truncates an existing
/// archive.
fn open_input(input: &str) -> Result<Box<dyn std::io::Read>, String> {
    if input == "-" {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        Ok(Box::new(
            std::fs::File::open(input).map_err(|e| e.to_string())?,
        ))
    }
}

/// Pump an opened input into `write` in bounded chunks — pack never holds
/// the deck. Returns the raw input bytes pumped.
fn stream_input(
    mut reader: Box<dyn std::io::Read>,
    mut write: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<u64, String> {
    let mut buf = vec![0u8; 1 << 20];
    let mut total = 0u64;
    loop {
        let n = reader.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            return Ok(total);
        }
        write(&buf[..n])?;
        total += n as u64;
    }
}

/// Bytes stored per byte of raw input — the cold-storage footprint the
/// payload ratio leaves out (index, dictionary, header and footer count
/// here).
fn stored_ratio(on_disk: u64, raw: u64) -> f64 {
    if raw == 0 {
        1.0
    } else {
        on_disk as f64 / raw as f64
    }
}

/// Whether two CLI paths name the same existing file (both must resolve;
/// a not-yet-existing output cannot clash).
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(x), Ok(y)) => x == y,
        _ => false,
    }
}

fn cmd_pack(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let output = args.require("--output")?;
    if input != "-" && same_file(input, output) {
        return Err(format!(
            "refusing to pack '{input}' onto itself: input and output are the same file"
        ));
    }
    // --train fits the embedded dictionary to the deck being packed: one
    // sampling pass over the input, then the normal streaming pack. Two
    // passes need a re-readable input, so stdin is refused.
    let dict = if args.get_bool("--train") {
        if input == "-" {
            return Err(
                "--train reads the input twice (sample, then pack); pipe the deck to a file \
                 or pass a path instead of '-'"
                    .into(),
            );
        }
        if args.get("--dict").is_some() {
            return Err("--train and --dict are mutually exclusive: \
                        the trained dictionary is the one embedded"
                .into());
        }
        let opts = train_options(args)?;
        let corpus = sample_corpus(input, &opts)?;
        let dict = train_dictionary(args, &corpus)?;
        if let Some(path) = args.get("--dict-out") {
            dict.save(Path::new(path)).map_err(|e| e.to_string())?;
        }
        if !args.get_bool("--quiet") {
            outln!(
                "fitted {} to the deck ({} of {} lines sampled, seed {})",
                describe_dict(&dict),
                corpus.len(),
                corpus.seen_lines(),
                opts.seed,
            );
        }
        dict
    } else {
        load_dict(args)?
    };
    let reader = open_input(input)?;
    let flavor = dict.flavor();
    let opts = WriterOptions {
        threads: args.get_usize("--threads", 1)?,
        ..Default::default()
    };
    let shard_lines = args.get_u64("--shard-lines", 0)?;
    let shard_bytes = args.get_u64("--shard-bytes", 0)?;
    let generation = args.get_u64("--generation", 0)?;
    if generation > 0 && shard_lines == 0 && shard_bytes == 0 {
        return Err(
            "--generation is stored on the .zsm manifest; add a --shard-lines or \
             --shard-bytes budget (single .zsa files carry no generation row)"
                .into(),
        );
    }
    let t0 = Instant::now();

    // Sharded layout: -o names the .zsm manifest, shards land beside it.
    if shard_lines > 0 || shard_bytes > 0 {
        let policy = ShardPolicy {
            max_lines: (shard_lines > 0).then_some(shard_lines),
            max_bytes: (shard_bytes > 0).then_some(shard_bytes),
        };
        let mut w = ShardedWriter::create(Path::new(output), dict, policy, opts)
            .map_err(|e| e.to_string())?;
        w.set_generation(generation);
        let raw = stream_input(reader, |chunk| w.write(chunk).map_err(|e| e.to_string()))?;
        let info = w.finish().map_err(|e| e.to_string())?;
        if !args.get_bool("--quiet") {
            let manifest = std::fs::metadata(output).map_err(|e| e.to_string())?.len();
            let on_disk = manifest + info.shards.iter().map(|s| s.file_bytes).sum::<u64>();
            outln!(
                "packed {} lines, {} -> {} payload bytes (ratio {:.3}) into {} shard(s), \
                 {} bytes on disk with the manifest (stored ratio {:.3} of {} input bytes), \
                 {} dictionary, in {:.2?}",
                info.stats.lines,
                info.stats.in_bytes,
                info.stats.out_bytes,
                info.stats.ratio(),
                info.shards.len(),
                on_disk,
                stored_ratio(on_disk, raw),
                raw,
                flavor.name(),
                t0.elapsed(),
            );
        }
        return Ok(());
    }

    // Single-file layout, still streaming: bounded memory however large
    // the deck is. The archive builds under a temp name and is renamed
    // into place only after a durable finish — a killed pack leaves the
    // previous output (or nothing), never a half-written container.
    let sink = AtomicFileSink::create(Path::new(output)).map_err(|e| e.to_string())?;
    let mut w = ArchiveWriter::with_options(sink, dict, opts).map_err(|e| e.to_string())?;
    let raw = stream_input(reader, |chunk| w.write(chunk).map_err(|e| e.to_string()))?;
    let (sink, info) = w.finish().map_err(|e| e.to_string())?;
    sink.commit().map_err(|e| e.to_string())?;
    if !args.get_bool("--quiet") {
        outln!(
            "packed {} lines, {} -> {} payload bytes (ratio {:.3}), {} bytes on disk \
             (stored ratio {:.3} of {} input bytes), {} dictionary, in {:.2?}",
            info.stats.lines,
            info.stats.in_bytes,
            info.stats.out_bytes,
            info.stats.ratio(),
            info.container_bytes,
            stored_ratio(info.container_bytes, raw),
            raw,
            flavor.name(),
            t0.elapsed(),
        );
    }
    Ok(())
}

fn cmd_unpack(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let output = args.require("--output")?;
    let threads = args.get_usize("--threads", 1)?;
    let t0 = Instant::now();
    // Out-of-core: payload is read in bounded chunks straight from disk,
    // so unpacking a multi-GB archive never holds it in memory. A .zsm
    // manifest streams shard by shard through the same call.
    let reader = ShardedReader::open(Path::new(input)).map_err(|e| e.to_string())?;
    if args.get_bool("--verify") {
        reader.verify().map_err(|e| e.to_string())?;
    }
    let f = std::fs::File::create(output).map_err(|e| e.to_string())?;
    let dstats = reader
        .unpack_to(
            std::io::BufWriter::new(f),
            threads,
            zsmiles_core::reader::DEFAULT_CHUNK,
        )
        .map_err(|e| e.to_string())?;
    if !args.get_bool("--quiet") {
        outln!(
            "unpacked {} lines, {} -> {} bytes in {:.2?}",
            dstats.lines,
            dstats.in_bytes,
            dstats.out_bytes,
            t0.elapsed()
        );
    }
    if args.get_bool("--verbose") {
        eprintln!(
            "{}",
            read_path_report(reader.bytes_mapped(), reader.cache_counters())
        );
    }
    Ok(())
}

/// `check`: deep-verify a deck, print the machine-readable report, and
/// optionally repair manifest metadata or quarantine damaged shards.
/// Exits nonzero while any shard stays bad, so orchestration can gate on
/// the exit code alone.
fn cmd_check(args: &Args) -> Result<(), String> {
    let path = Path::new(args.require("--archive")?);
    let mut report = check_deck(path).map_err(|e| e.to_string())?;
    if args.get_bool("--repair") && !report.is_ok() {
        let outcome = repair_deck(path, &report).map_err(|e| e.to_string())?;
        for file in &outcome.rows_rewritten {
            eprintln!("repaired: manifest row for {file} rewritten from the shard file");
        }
        for file in &outcome.unrepairable {
            eprintln!("unrepairable: {file} has payload damage (quarantine or re-pack)");
        }
        if !outcome.rows_rewritten.is_empty() {
            report = check_deck(path).map_err(|e| e.to_string())?;
        }
    }
    if args.get_bool("--quarantine") && !report.is_ok() {
        for file in quarantine_shards(path, &report).map_err(|e| e.to_string())? {
            eprintln!("quarantined: {file} -> {file}.quarantined");
        }
    }
    outln!("{}", report.to_json());
    if report.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} shard(s) failed verification",
            report.bad_count(),
            report.shards.len()
        ))
    }
}

/// One-line `--verbose` description of how an archive's bytes were
/// served: an mmap (zero-copy, nothing to cache) or positioned file I/O
/// through the shared block cache, with this workload's hit/miss split
/// and the pool's eviction pressure.
fn read_path_report(bytes_mapped: u64, counters: Option<(u64, u64)>) -> String {
    match counters {
        None => format!("read path: mmap, {bytes_mapped} bytes mapped (zero-copy, no block cache)"),
        Some((hits, misses)) => {
            let total = hits + misses;
            let rate = if total > 0 {
                100.0 * hits as f64 / total as f64
            } else {
                0.0
            };
            let pool = BlockCache::global().stats();
            format!(
                "read path: cached file I/O, {hits} hit(s) / {misses} miss(es) ({rate:.1}% hit \
                 rate) | shared pool: {} block(s) resident, {} eviction(s), {} failed load(s)",
                pool.resident_blocks, pool.evictions, pool.load_failures
            )
        }
    }
}

fn cmd_get(args: &Args) -> Result<(), String> {
    let line_no = args.get_usize("--line", 0)?;

    // Either layout through one reader: a .zsm manifest routes global
    // line numbers across its shards, a bare .zsa is a one-shard deck.
    // Only metadata plus the requested byte ranges are read — a probe
    // into a multi-GB deck never allocates the payload. Files are mmapped
    // where the platform allows (each fetch is a zero-syscall copy from
    // the mapping); otherwise positioned reads go through the shared
    // block cache.
    if let Some(path) = args.get("--archive") {
        let reader = ShardedReader::open(Path::new(path)).map_err(|e| e.to_string())?;
        if args.get_bool("--verify") {
            // Opt-in integrity pass: one sequential CRC scan per file.
            // Without it a fetch touches only metadata + the lines read.
            reader.verify().map_err(|e| e.to_string())?;
        }
        let count = args.get_usize("--count", 1)?.max(1);
        let end = line_no
            .checked_add(count)
            .ok_or_else(|| "line number overflows".to_string())?;
        // Snapshot after open/verify so the report covers line fetches
        // only, not the metadata reads (or the CRC scan).
        let base = reader.cache_counters();
        let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
        // A consecutive run is one batched range fetch per file.
        for smiles in reader.get_range(line_no..end).map_err(|e| e.to_string())? {
            writeln!(stdout, "{}", String::from_utf8_lossy(&smiles)).map_err(stdout_error)?;
        }
        stdout.flush().map_err(stdout_error)?;
        if args.get_bool("--verbose") {
            if !reader.is_single_file() {
                eprintln!(
                    "sharded deck: {} lines across {} shard(s)",
                    reader.len(),
                    reader.shard_count(),
                );
            }
            let fetched = match (base, reader.cache_counters()) {
                (Some((h0, m0)), Some((h, m))) => Some((h - h0, m - m0)),
                _ => None,
            };
            eprintln!(
                "{} over {count} line fetch(es)",
                read_path_report(reader.bytes_mapped(), fetched)
            );
        }
        return Ok(());
    }

    let input = args.require("--input")?;
    let dict = load_dict(args)?;
    let smiles = get_loose_line(Path::new(input), &dict, line_no)?;
    outln!("{}", String::from_utf8_lossy(&smiles));
    Ok(())
}

/// The loose-file `get -i deck.zsmi -d dict.dct --line K`: decode line
/// `line_no` of a compressed deck through the `<deck>.zsx` sidecar index
/// beside it (any wire version), or through an index built on the fly
/// when there is none.
pub fn get_loose_line(
    input: &Path,
    dict: &AnyDictionary,
    line_no: usize,
) -> Result<Vec<u8>, String> {
    let data = std::fs::read(input).map_err(|e| e.to_string())?;
    let mut sidecar = input.as_os_str().to_owned();
    sidecar.push(".zsx");
    let sidecar = Path::new(&sidecar);
    let idx = if sidecar.exists() {
        LineIndex::load(sidecar).map_err(|e| e.to_string())?
    } else {
        LineIndex::build(&data)
    };
    if line_no >= idx.len() {
        return Err(format!(
            "line {line_no} out of range (file has {})",
            idx.len()
        ));
    }
    // A sidecar describing some other file would slice out of bounds.
    if idx.total_bytes() != data.len() as u64 {
        return Err(format!(
            "{} indexes {} bytes but {} holds {}",
            sidecar.display(),
            idx.total_bytes(),
            input.display(),
            data.len()
        ));
    }
    let mut smiles = Vec::new();
    dict.decompress_line(idx.line(&data, line_no), &mut smiles)
        .map_err(|e| e.to_string())?;
    Ok(smiles)
}

/// `index v4, 80316 bytes, 1.00 B/line`: the wire version(s) of the
/// stored line indexes of `readers` and what they cost per line.
fn index_footprint<'a, S: ArchiveSource + 'a>(
    readers: impl IntoIterator<Item = &'a ArchiveReader<S>>,
) -> String {
    let (mut versions, mut bytes, mut lines) = (Vec::new(), 0, 0);
    for r in readers {
        versions.extend(r.index().wire_version());
        bytes += r.index_bytes();
        lines += r.len();
    }
    versions.sort_unstable();
    versions.dedup();
    let versions: Vec<String> = versions.iter().map(|v| format!("v{v}")).collect();
    format!(
        "index {}, {bytes} bytes, {:.2} B/line",
        versions.join("+"),
        bytes as f64 / lines.max(1) as f64
    )
}

/// `index in memory: 90368 bytes, 1.13 B/line`: the heap the open line
/// indexes of `readers` hold.
fn index_in_memory<'a, S: ArchiveSource + 'a>(
    readers: impl IntoIterator<Item = &'a ArchiveReader<S>>,
) -> String {
    let (mut bytes, mut lines) = (0, 0);
    for r in readers {
        bytes += r.index().heap_bytes();
        lines += r.len();
    }
    format!(
        "index in memory: {bytes} bytes, {:.2} B/line",
        bytes as f64 / lines.max(1) as f64
    )
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("--archive") {
        let reader = ShardedReader::open(Path::new(path)).map_err(|e| e.to_string())?;
        if args.get_bool("--verify") {
            reader.verify().map_err(|e| e.to_string())?;
        }
        let (layout, shard_count) = if reader.is_single_file() {
            ("", String::new())
        } else {
            ("sharded ", format!(" | {} shard(s)", reader.shard_count()))
        };
        outln!(
            "{layout}archive: {} lines | {} payload bytes{shard_count} | {} dictionary | preprocess {}",
            reader.len(),
            reader.payload_bytes(),
            reader.flavor().name(),
            reader.dictionary().preprocessed(),
        );
        let shards = || (0..reader.shard_count()).filter_map(|s| reader.shard_reader(s));
        outln!("{}", index_footprint(shards()));
        outln!("{}", index_in_memory(shards()));
        if args.get_bool("--verbose") {
            outln!(
                "  {:<24} {:>10} {:>12} {:>9}  index",
                "shard",
                "lines",
                "bytes",
                "crc32"
            );
            for (i, s) in reader.manifest().shards().iter().enumerate() {
                let index = reader
                    .shard_reader(i)
                    .map_or("quarantined".into(), |r| index_footprint([r]));
                outln!(
                    "  {:<24} {:>10} {:>12} {:>9}  {}",
                    s.file,
                    s.lines,
                    s.file_bytes,
                    format!("{:08x}", s.crc32),
                    index,
                );
            }
            outln!(
                "  open transferred {} metadata bytes, payload untouched",
                reader.metadata_bytes(),
            );
        }
        return Ok(());
    }
    let dict = load_dict(args)?;
    match &dict {
        AnyDictionary::Base(dict) => {
            outln!(
                "dictionary: {} patterns + {} identity codes | prepopulation {} | \
                 preprocess {} | Lmin {} Lmax {} | longest pattern {}",
                dict.pattern_entries().count(),
                dict.prepopulation().identity_bytes().len(),
                dict.prepopulation().name(),
                dict.preprocessed(),
                dict.lmin(),
                dict.lmax(),
                dict.max_pattern_len(),
            );
            if let Some(input) = args.get("--input") {
                if !args.get_bool("--dict-stats") {
                    let data = std::fs::read(input).map_err(|e| e.to_string())?;
                    let report = zsmiles_core::dict::analysis::analyze(dict, &data);
                    write!(std::io::stdout(), "{}", report.summary(dict)).map_err(stdout_error)?;
                }
            }
        }
        AnyDictionary::Wide(dict) => {
            outln!(
                "wide dictionary: {} one-byte + {} two-byte codes | prepopulation {} | \
                 preprocess {} | Lmin {} Lmax {} | longest pattern {}",
                dict.base_len(),
                dict.wide_len(),
                dict.prepopulation().name(),
                dict.preprocessed(),
                dict.lmin(),
                dict.lmax(),
                dict.max_pattern_len(),
            );
        }
    }
    if args.get_bool("--dict-stats") {
        print_dict_stats(args, &dict)?;
    }
    Ok(())
}

/// The `--dict-stats` block: symbol count, pattern length histogram, and
/// (given `-i sample.smi`) per-symbol hit coverage over the sample deck.
/// Works for either flavour.
fn print_dict_stats(args: &Args, dict: &AnyDictionary) -> Result<(), String> {
    use zsmiles_core::dict::analysis;
    let stats = analysis::dict_stats(dict);
    outln!(
        "symbols: {} ({} identity + {} patterns) | longest pattern {}",
        stats.symbols(),
        stats.identity,
        stats.patterns,
        stats.max_len,
    );
    outln!("pattern length histogram:");
    let peak = stats.histogram_rows().map(|(_, n)| n).max().unwrap_or(1);
    for (len, n) in stats.histogram_rows() {
        let bar = "#".repeat((n * 40).div_ceil(peak.max(1)));
        outln!("  len {len:>2} {n:>5}  {bar}");
    }
    outln!("matcher layouts:");
    for layout in analysis::matcher_layouts(dict) {
        outln!(
            "  {:<13} {:>6} states x {:>3} classes | {:>9} bytes ({:.1} B/state)",
            layout.name,
            layout.states,
            layout.classes,
            layout.memory_bytes,
            layout.bytes_per_state(),
        );
    }
    let Some(input) = args.get("--input") else {
        return Ok(());
    };
    let data = std::fs::read(input).map_err(|e| e.to_string())?;
    let cov = analysis::coverage(dict, &data).map_err(|e| e.to_string())?;
    outln!(
        "coverage over {input}: {} lines, {} -> {} bytes (ratio {:.3}), {} escapes",
        cov.lines,
        cov.in_bytes,
        cov.out_bytes,
        cov.ratio(),
        cov.escapes,
    );
    outln!(
        "patterns used: {} of {} ({} dead on this deck)",
        cov.total_patterns - cov.dead_patterns,
        cov.total_patterns,
        cov.dead_patterns,
    );
    outln!("top symbols by input bytes covered:");
    for (code, pat, uses, covered) in cov.hits.iter().take(10) {
        let code_hex: String = code.iter().map(|b| format!("{b:02x}")).collect();
        let printable: String = pat
            .iter()
            .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
            .collect();
        outln!("  0x{code_hex:<4} {printable:<16} {uses:>9} uses {covered:>11} B");
    }
    Ok(())
}

/// `serve`: hold a deck open and answer wire clients until a wire
/// shutdown arrives. The bound address is printed (and flushed) first so
/// callers that requested an ephemeral port can read it from stdout.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let path = args.require("--archive")?;
    let addr = args.get("--addr").unwrap_or("127.0.0.1:0");
    let executor = match args.get("--executor").unwrap_or("pooled") {
        "pooled" => Executor::Pooled,
        "threaded" => Executor::Threaded,
        other => return Err(format!("--executor: '{other}' is not pooled|threaded")),
    };
    let opts = ServeOptions {
        max_connections: args.get_usize("--max-conns", 64)?,
        degraded: args.get_bool("--degraded"),
        executor,
        workers: args.get_usize("--workers", 0)?,
        pipeline_depth: args.get_usize("--depth", 64)?.max(1),
        screener: Some(std::sync::Arc::new(vscreen::PocketScreener)),
        ..Default::default()
    };
    let handle = Server::start(Path::new(path), addr, opts).map_err(|e| e.to_string())?;
    let health = handle.health();
    // The server outlives its launcher's interest in stdout: a reader
    // that reads the address and hangs up must not stop it, so these
    // writes may fail.
    let _ = writeln!(
        std::io::stdout(),
        "serving {path} ({} lines, generation {}) on {}{}",
        handle.stats().lines,
        handle.generation(),
        handle.addr(),
        if health.ok {
            String::new()
        } else {
            format!(
                " [degraded: {} of {} shard(s) quarantined, {} line(s) unavailable]",
                health.quarantined_shards, health.total_shards, health.unavailable_lines
            )
        }
    );
    std::io::stdout().flush().ok();
    handle.wait();
    if !args.get_bool("--quiet") {
        let _ = writeln!(std::io::stdout(), "server stopped");
    }
    Ok(())
}

/// `query`: one request against a running `serve` process.
fn cmd_query(args: &Args) -> Result<(), String> {
    let addr = args.require("--addr")?;
    let mut client = QueryClient::connect(addr).map_err(|e| e.to_string())?;
    if args.get_bool("--stats") {
        let s = client.stats().map_err(|e| e.to_string())?;
        outln!(
            "generation {} | {} lines | {} shard(s) | {} request(s) served | {} flip(s) | \
             {} active connection(s) | {} retired block(s)",
            s.generation,
            s.lines,
            s.shards,
            s.requests,
            s.flips,
            s.active_connections,
            s.retired_blocks,
        );
        return Ok(());
    }
    if args.get_bool("--health") {
        let h = client.health().map_err(|e| e.to_string())?;
        outln!(
            "{} | generation {} | {} shard(s), {} quarantined | {} line(s) unavailable",
            if h.ok { "ok" } else { "degraded" },
            h.generation,
            h.total_shards,
            h.quarantined_shards,
            h.unavailable_lines,
        );
        // A degraded deck is a nonzero exit so readiness probes can
        // just run `query --health`.
        return if h.ok {
            Ok(())
        } else {
            Err(format!(
                "deck is degraded: {} shard(s) quarantined",
                h.quarantined_shards
            ))
        };
    }
    if let Some(path) = args.get("--flip") {
        let generation = client.flip(path).map_err(|e| e.to_string())?;
        outln!("flipped to generation {generation}");
        return Ok(());
    }
    if args.get_bool("--shutdown") {
        client.shutdown().map_err(|e| e.to_string())?;
        if !args.get_bool("--quiet") {
            outln!("server shutting down");
        }
        return Ok(());
    }
    if let Some(k) = args.get("--top-hits") {
        let k: u32 = k
            .parse()
            .map_err(|_| format!("--top-hits: bad count '{k}'"))?;
        let pattern = args.require("--pattern")?;
        let hits = client.top_hits(k, pattern).map_err(|e| e.to_string())?;
        let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
        for h in &hits {
            writeln!(
                stdout,
                "{}\t{}\t{}",
                h.index,
                h.score(),
                String::from_utf8_lossy(&h.smiles)
            )
            .map_err(stdout_error)?;
        }
        return stdout.flush().map_err(stdout_error);
    }
    let depth = args.get_usize("--depth", 1)?.max(1);
    let lines = if let Some(list) = args.get("--many") {
        let wanted: Vec<u64> = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--many: bad line number '{s}'"))
            })
            .collect::<Result<_, String>>()?;
        if depth > 1 {
            client
                .get_many_pipelined(&wanted, depth)
                .map_err(|e| e.to_string())?
        } else {
            client.get_many(&wanted).map_err(|e| e.to_string())?
        }
    } else {
        let line = args.get_u64("--line", 0)?;
        let count = args.get_u64("--count", 1)?.max(1);
        let end = line
            .checked_add(count)
            .ok_or_else(|| "line number overflows".to_string())?;
        client.get_range(line, end).map_err(|e| e.to_string())?
    };
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    for smiles in lines {
        writeln!(stdout, "{}", String::from_utf8_lossy(&smiles)).map_err(stdout_error)?;
    }
    stdout.flush().map_err(stdout_error)
}

fn cmd_screen(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let ds = Dataset::load(Path::new(input)).map_err(|e| e.to_string())?;
    let seed = match args.get("--pocket-seed") {
        None => 0xD0C5EED,
        Some(v) => vscreen::parse_pocket_seed(v).ok_or_else(|| {
            format!("flag '--pocket-seed': '{v}' is not a pocket seed (decimal or 0x-prefixed hex)")
        })?,
    };
    let pocket = vscreen::Pocket::from_seed(seed);
    let threads = args.get_usize("--threads", 2)?;
    let top = args.get_usize("--top", 10)?;
    let t0 = Instant::now();
    let scores = vscreen::screen_parallel(&ds, &pocket, threads);
    let dt = t0.elapsed();
    if let Some(path) = args.get("--scores") {
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        scores
            .write_tsv(std::io::BufWriter::new(f))
            .map_err(|e| e.to_string())?;
    }
    if !args.get_bool("--quiet") {
        outln!(
            "screened {} ligands against pocket {:#x} in {:.2?} (mean score {:.2})",
            ds.len(),
            pocket.seed(),
            dt,
            scores.mean()
        );
        for (i, s) in scores.top_k(top) {
            outln!("#{i:>8}  {s:9.2}  {}", String::from_utf8_lossy(ds.line(i)));
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let input = args.require("--input")?;
    let ds = Dataset::load(Path::new(input)).map_err(|e| e.to_string())?;
    outln!("{}", stats(&ds).summary());
    Ok(())
}

/// Round-trip one deck through every CLI stage, used by the integration
/// test below (kept here so the binary logic is what gets tested).
#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_cli_round_trip() {
        let smi = tmp("zcli_deck.smi");
        let dct = tmp("zcli_dict.dct");
        let zsmi = tmp("zcli_deck.zsmi");
        let back = tmp("zcli_back.smi");

        run(&argv(&[
            "gen",
            "--profile",
            "gdb17",
            "-n",
            "300",
            "--seed",
            "9",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&["train", "-i", &smi, "-o", &dct, "--quiet"])).unwrap();
        run(&argv(&[
            "compress", "-i", &smi, "-d", &dct, "-o", &zsmi, "--index", "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "decompress",
            "-i",
            &zsmi,
            "-d",
            &dct,
            "-o",
            &back,
            "--quiet",
        ]))
        .unwrap();

        let original = Dataset::load(Path::new(&smi)).unwrap();
        let restored = Dataset::load(Path::new(&back)).unwrap();
        assert_eq!(original.len(), restored.len());
        // Training preprocessed, so restored lines are the renumbered form;
        // they must still be valid SMILES for the same molecules.
        for (a, b) in original.iter().zip(restored.iter()) {
            let ma = smiles::parser::parse(a).unwrap();
            let mb = smiles::parser::parse(b).unwrap();
            assert_eq!(ma.signature(), mb.signature());
        }
        // The compressed file must be smaller.
        let z = std::fs::metadata(&zsmi).unwrap().len();
        let o = std::fs::metadata(&smi).unwrap().len();
        assert!(z < o, "{z} < {o}");
        // Random access via the sidecar.
        run(&argv(&["get", "-i", &zsmi, "-d", &dct, "--line", "42"])).unwrap();

        for f in [&smi, &dct, &zsmi, &back, &format!("{zsmi}.zsx")] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn wide_cli_round_trip() {
        let smi = tmp("zcli_wide.smi");
        let dct = tmp("zcli_wide.wdct");
        let zsmi = tmp("zcli_wide.zsmi");
        let back = tmp("zcli_wide_back.smi");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "400",
            "--seed",
            "3",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "train", "-i", &smi, "-o", &dct, "--wide", "64", "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "compress", "-i", &smi, "-d", &dct, "-o", &zsmi, "--index", "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "decompress",
            "-i",
            &zsmi,
            "-d",
            &dct,
            "-o",
            &back,
            "--quiet",
        ]))
        .unwrap();

        let original = Dataset::load(Path::new(&smi)).unwrap();
        let restored = Dataset::load(Path::new(&back)).unwrap();
        assert_eq!(original.len(), restored.len());
        for (a, b) in original.iter().zip(restored.iter()) {
            assert_eq!(
                smiles::parser::parse(a).unwrap().signature(),
                smiles::parser::parse(b).unwrap().signature()
            );
        }
        let z = std::fs::metadata(&zsmi).unwrap().len();
        let o = std::fs::metadata(&smi).unwrap().len();
        assert!(z < o, "{z} < {o}");
        // Random access and inspect against the wide dictionary.
        run(&argv(&["get", "-i", &zsmi, "-d", &dct, "--line", "7"])).unwrap();
        run(&argv(&["inspect", "-d", &dct])).unwrap();
        // Postprocess is a base-only feature; the wide path must refuse.
        assert!(run(&argv(&[
            "decompress",
            "-i",
            &zsmi,
            "-d",
            &dct,
            "-o",
            &back,
            "--postprocess",
            "--quiet"
        ]))
        .is_err());

        for f in [&smi, &dct, &zsmi, &back, &format!("{zsmi}.zsx")] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn pack_unpack_archive_round_trip() {
        for (tag, wide) in [("base", false), ("wide", true)] {
            let smi = tmp(&format!("zcli_pack_{tag}.smi"));
            let dct = tmp(&format!("zcli_pack_{tag}.dct"));
            let zsa = tmp(&format!("zcli_pack_{tag}.zsa"));
            let back = tmp(&format!("zcli_pack_{tag}_back.smi"));

            run(&argv(&[
                "gen",
                "--profile",
                "mixed",
                "-n",
                "250",
                "--seed",
                "17",
                "-o",
                &smi,
                "--quiet",
            ]))
            .unwrap();
            let mut train = vec![
                "train",
                "-i",
                &smi,
                "-o",
                &dct,
                "--no-preprocess",
                "--quiet",
            ];
            if wide {
                train.extend(["--wide", "48"]);
            }
            run(&argv(&train)).unwrap();
            run(&argv(&[
                "pack",
                "-i",
                &smi,
                "-d",
                &dct,
                "-o",
                &zsa,
                "--threads",
                "3",
                "--quiet",
            ]))
            .unwrap();
            run(&argv(&["unpack", "-i", &zsa, "-o", &back, "--quiet"])).unwrap();

            // Preprocess was off, so the round trip is byte-identical.
            assert_eq!(
                std::fs::read(&smi).unwrap(),
                std::fs::read(&back).unwrap(),
                "{tag}: unpack(pack(x)) == x"
            );
            // Random access needs only the single archive file.
            run(&argv(&["get", "--archive", &zsa, "--line", "42"])).unwrap();
            // A consecutive-line loop through the read-ahead cache.
            run(&argv(&[
                "get",
                "--archive",
                &zsa,
                "--line",
                "40",
                "--count",
                "20",
                "--verbose",
            ]))
            .unwrap();
            // The loop must not run past the end of the deck.
            assert!(run(&argv(&[
                "get",
                "--archive",
                &zsa,
                "--line",
                "245",
                "--count",
                "10",
            ]))
            .is_err());
            run(&argv(&[
                "get",
                "--archive",
                &zsa,
                "--line",
                "42",
                "--verify",
            ]))
            .unwrap();
            run(&argv(&["inspect", "--archive", &zsa])).unwrap();
            run(&argv(&["inspect", "--archive", &zsa, "--verbose"])).unwrap();
            // Out-of-range line is an error, not a panic.
            assert!(run(&argv(&["get", "--archive", &zsa, "--line", "9999"])).is_err());

            for f in [&smi, &dct, &zsa, &back] {
                std::fs::remove_file(f).ok();
            }
        }
    }

    #[test]
    fn sharded_pack_round_trip_through_the_manifest() {
        let dir = std::env::temp_dir().join(format!("zcli_shard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let dct = p("deck.dct");
        let zsm = p("deck.zsm");
        let zsa = p("single.zsa");
        let back = p("back.smi");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "500",
            "--seed",
            "23",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "train",
            "-i",
            &smi,
            "-o",
            &dct,
            "--no-preprocess",
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "pack",
            "-i",
            &smi,
            "-d",
            &dct,
            "-o",
            &zsm,
            "--shard-lines",
            "150",
            "--threads",
            "2",
            "--quiet",
        ]))
        .unwrap();
        // 500 lines at 150/shard = 4 shard files beside the manifest.
        assert!(std::fs::read_to_string(&zsm)
            .unwrap()
            .starts_with("#zsmiles-shards"));
        for k in 0..4 {
            assert!(dir.join(format!("deck.{k:05}.zsa")).exists(), "shard {k}");
        }

        // get across a shard boundary, with --count spanning two shards.
        run(&argv(&["get", "--archive", &zsm, "--line", "149"])).unwrap();
        run(&argv(&[
            "get",
            "--archive",
            &zsm,
            "--line",
            "145",
            "--count",
            "10",
            "--verbose",
        ]))
        .unwrap();
        run(&argv(&[
            "get",
            "--archive",
            &zsm,
            "--line",
            "0",
            "--verify",
        ]))
        .unwrap();
        assert!(run(&argv(&["get", "--archive", &zsm, "--line", "500"])).is_err());
        assert!(run(&argv(&[
            "get",
            "--archive",
            &zsm,
            "--line",
            "495",
            "--count",
            "10",
        ]))
        .is_err());
        run(&argv(&["inspect", "--archive", &zsm, "--verbose"])).unwrap();

        // Byte-identical unpack, and identical to the single-file layout.
        run(&argv(&[
            "unpack", "-i", &zsm, "-o", &back, "--verify", "--quiet",
        ]))
        .unwrap();
        assert_eq!(std::fs::read(&smi).unwrap(), std::fs::read(&back).unwrap());
        run(&argv(&[
            "pack", "-i", &smi, "-d", &dct, "-o", &zsa, "--quiet",
        ]))
        .unwrap();
        run(&argv(&["unpack", "-i", &zsa, "-o", &back, "--quiet"])).unwrap();
        assert_eq!(std::fs::read(&smi).unwrap(), std::fs::read(&back).unwrap());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_query_over_tcp() {
        let dir = std::env::temp_dir().join(format!("zcli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let dct = p("deck.dct");
        let zsm = p("deck.zsm");
        let next = p("next.zsm");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "300",
            "--seed",
            "41",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "train",
            "-i",
            &smi,
            "-o",
            &dct,
            "--no-preprocess",
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "pack",
            "-i",
            &smi,
            "-d",
            &dct,
            "-o",
            &zsm,
            "--shard-lines",
            "100",
            "--quiet",
        ]))
        .unwrap();
        // A generation-stamped deck to flip to (v2 manifest).
        run(&argv(&[
            "pack",
            "-i",
            &smi,
            "-d",
            &dct,
            "-o",
            &next,
            "--shard-lines",
            "100",
            "--generation",
            "7",
            "--quiet",
        ]))
        .unwrap();
        // --generation without a shard budget is refused (nothing to
        // stamp it on).
        assert!(run(&argv(&[
            "pack",
            "-i",
            &smi,
            "-d",
            &dct,
            "-o",
            &p("x.zsa"),
            "--generation",
            "3",
            "--quiet",
        ]))
        .is_err());

        let handle = Server::start(
            Path::new(&zsm),
            "127.0.0.1:0",
            zsmiles_core::ServeOptions::default(),
        )
        .unwrap();
        let addr = handle.addr().to_string();
        run(&argv(&[
            "query", "--addr", &addr, "--line", "5", "--count", "3",
        ]))
        .unwrap();
        run(&argv(&["query", "--addr", &addr, "--many", "0, 99, 299"])).unwrap();
        run(&argv(&["query", "--addr", &addr, "--stats"])).unwrap();
        // Flip to the generation-7 deck, then read through it.
        run(&argv(&["query", "--addr", &addr, "--flip", &next])).unwrap();
        assert_eq!(handle.generation(), 7);
        run(&argv(&["query", "--addr", &addr, "--line", "0"])).unwrap();
        // Flipping back to the unstamped deck assigns generation 8.
        run(&argv(&["query", "--addr", &addr, "--flip", &zsm])).unwrap();
        assert_eq!(handle.generation(), 8);
        // A line past the end is a typed error, not a hang.
        assert!(run(&argv(&["query", "--addr", &addr, "--line", "300"])).is_err());
        run(&argv(&["query", "--addr", &addr, "--shutdown", "--quiet"])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_preserves_existing_output_on_bad_input_and_refuses_self_pack() {
        let dir = std::env::temp_dir().join(format!("zcli_packsafe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let dct = p("deck.dct");
        let zsa = p("deck.zsa");

        run(&argv(&[
            "gen",
            "--profile",
            "gdb17",
            "-n",
            "80",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&["train", "-i", &smi, "-o", &dct, "--quiet"])).unwrap();
        run(&argv(&[
            "pack", "-i", &smi, "-d", &dct, "-o", &zsa, "--quiet",
        ]))
        .unwrap();
        let archive_bytes = std::fs::read(&zsa).unwrap();

        // A bad input path must not touch the existing archive.
        let missing = p("nope.smi");
        assert!(run(&argv(&[
            "pack", "-i", &missing, "-d", &dct, "-o", &zsa, "--quiet"
        ]))
        .is_err());
        assert_eq!(
            std::fs::read(&zsa).unwrap(),
            archive_bytes,
            "failed pack left the previous archive intact"
        );

        // Packing a file onto itself is refused before any truncation.
        let err = run(&argv(&[
            "pack", "-i", &smi, "-d", &dct, "-o", &smi, "--quiet",
        ]))
        .unwrap_err();
        assert!(err.contains("same file"), "got: {err}");
        assert!(
            std::fs::metadata(&smi).unwrap().len() > 0,
            "input survived the refused self-pack"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_quarantine_and_degraded_serve_round_trip() {
        let dir = std::env::temp_dir().join(format!("zcli_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let dct = p("deck.dct");
        let zsm = p("deck.zsm");
        let good = p("good.zsm");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "300",
            "--seed",
            "17",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "train",
            "-i",
            &smi,
            "-o",
            &dct,
            "--no-preprocess",
            "--quiet",
        ]))
        .unwrap();
        for (deck, generation) in [(&zsm, "1"), (&good, "9")] {
            run(&argv(&[
                "pack",
                "-i",
                &smi,
                "-d",
                &dct,
                "-o",
                deck,
                "--shard-lines",
                "100",
                "--generation",
                generation,
                "--quiet",
            ]))
            .unwrap();
        }

        // A clean deck checks ok.
        run(&argv(&["check", "--archive", &zsm])).unwrap();

        // Corrupt the middle shard's payload; check must fail and name it.
        let victim = dir.join("deck.00001.zsa");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&victim, &bytes).unwrap();
        let err = run(&argv(&["check", "--archive", &zsm])).unwrap_err();
        assert!(err.contains("1 of 3"), "got: {err}");

        // Quarantine the damage; a strict open now refuses the deck
        // (shard file gone), degraded serving carries on without it.
        assert!(run(&argv(&["check", "--archive", &zsm, "--quarantine"])).is_err());
        assert!(dir.join("deck.00001.zsa.quarantined").exists());
        assert!(Server::start(
            Path::new(&zsm),
            "127.0.0.1:0",
            zsmiles_core::ServeOptions::default()
        )
        .is_err());
        let handle = Server::start(
            Path::new(&zsm),
            "127.0.0.1:0",
            zsmiles_core::ServeOptions {
                degraded: true,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();
        // Health reports degraded (nonzero exit for probes).
        assert!(run(&argv(&["query", "--addr", &addr, "--health"])).is_err());
        // Healthy-shard lines still answer; quarantined lines are typed
        // errors, not hangs.
        run(&argv(&["query", "--addr", &addr, "--line", "5"])).unwrap();
        run(&argv(&["query", "--addr", &addr, "--line", "250"])).unwrap();
        let err = run(&argv(&["query", "--addr", &addr, "--line", "150"])).unwrap_err();
        assert!(err.contains("Unavailable"), "got: {err}");

        // Flip to the repaired generation restores full health.
        run(&argv(&["query", "--addr", &addr, "--flip", &good])).unwrap();
        run(&argv(&["query", "--addr", &addr, "--health"])).unwrap();
        run(&argv(&["query", "--addr", &addr, "--line", "150"])).unwrap();
        run(&argv(&["query", "--addr", &addr, "--shutdown", "--quiet"])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_samples_caps_and_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("zcli_train_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let d1 = p("a.dct");
        let d2 = p("b.dct");
        let dw = p("w.dct");
        let dp = p("paper.dct");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "600",
            "--seed",
            "5",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        // Reservoir-sampled, budget-capped training; fixed seed twice
        // writes byte-identical dictionaries.
        for d in [&d1, &d2] {
            run(&argv(&[
                "train",
                "-i",
                &smi,
                "-o",
                d,
                "--sample-lines",
                "200",
                "--seed",
                "11",
                "--max-symbols",
                "40",
                "--quiet",
            ]))
            .unwrap();
        }
        assert_eq!(
            std::fs::read(&d1).unwrap(),
            std::fs::read(&d2).unwrap(),
            "fixed seed => identical dictionary"
        );
        let dict = AnyDictionary::load(Path::new(&d1)).unwrap();
        let AnyDictionary::Base(base) = &dict else {
            panic!("base flavour expected")
        };
        assert!(base.pattern_entries().count() <= 40);

        // Wide flavour through the same subsystem.
        run(&argv(&[
            "train", "-i", &smi, "-o", &dw, "--flavor", "wide", "--wide", "32", "--quiet",
        ]))
        .unwrap();
        assert!(matches!(
            AnyDictionary::load(Path::new(&dw)).unwrap(),
            AnyDictionary::Wide(_)
        ));

        // The paper's Algorithm-1 ranking stays selectable.
        run(&argv(&[
            "train", "-i", &smi, "-o", &dp, "--select", "paper", "--quiet",
        ]))
        .unwrap();
        assert!(matches!(
            AnyDictionary::load(Path::new(&dp)).unwrap(),
            AnyDictionary::Base(_)
        ));
        assert!(run(&argv(&[
            "train", "-i", &smi, "-o", &dp, "--select", "bogus", "--quiet",
        ]))
        .is_err());

        // The stats surface renders for both flavours, with and without a
        // sample deck.
        run(&argv(&["inspect", "-d", &d1, "--dict-stats", "-i", &smi])).unwrap();
        run(&argv(&["inspect", "-d", &dw, "--dict-stats"])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_train_fits_the_embedded_dictionary() {
        let dir = std::env::temp_dir().join(format!("zcli_packtrain_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let smi = p("deck.smi");
        let zsa = p("deck.zsa");
        let fitted = p("fitted.dct");
        let back = p("back.smi");

        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "400",
            "--seed",
            "31",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "pack",
            "-i",
            &smi,
            "-o",
            &zsa,
            "--train",
            "--no-preprocess",
            "--dict-out",
            &fitted,
            "--quiet",
        ]))
        .unwrap();
        // The fitted dictionary was saved and is loadable.
        let dict = AnyDictionary::load(Path::new(&fitted)).unwrap();
        assert!(!dict.preprocessed());
        // The archive embeds the same trained dictionary and round-trips.
        run(&argv(&["unpack", "-i", &zsa, "-o", &back, "--quiet"])).unwrap();
        assert_eq!(std::fs::read(&smi).unwrap(), std::fs::read(&back).unwrap());
        run(&argv(&["get", "--archive", &zsa, "--line", "123"])).unwrap();

        // stdin cannot be read twice; --dict conflicts with --train.
        assert!(run(&argv(&[
            "pack", "-i", "-", "-o", &zsa, "--train", "--quiet",
        ]))
        .is_err());
        assert!(run(&argv(&[
            "pack", "-i", &smi, "-o", &zsa, "--train", "-d", &fitted, "--quiet",
        ]))
        .is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_archive_is_rejected() {
        let smi = tmp("zcli_corrupt.smi");
        let dct = tmp("zcli_corrupt.dct");
        let zsa = tmp("zcli_corrupt.zsa");
        run(&argv(&[
            "gen",
            "--profile",
            "gdb17",
            "-n",
            "50",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&["train", "-i", &smi, "-o", &dct, "--quiet"])).unwrap();
        run(&argv(&[
            "pack", "-i", &smi, "-d", &dct, "-o", &zsa, "--quiet",
        ]))
        .unwrap();
        let mut blob = std::fs::read(&zsa).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        std::fs::write(&zsa, &blob).unwrap();
        // The out-of-core reader does not touch the payload unless asked;
        // --verify forces the full CRC pass and must catch the flip.
        let err = run(&argv(&[
            "get",
            "--archive",
            &zsa,
            "--line",
            "0",
            "--verify",
        ]))
        .unwrap_err();
        assert!(
            err.contains("CRC"),
            "corruption detected via CRC, got: {err}"
        );
        // A truncated file fails structurally even without --verify.
        std::fs::write(&zsa, &blob[..blob.len() - 5]).unwrap();
        assert!(run(&argv(&["get", "--archive", &zsa, "--line", "0"])).is_err());
        for f in [&smi, &dct, &zsa] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn inspect_command() {
        let smi = tmp("zcli_inspect.smi");
        let dct = tmp("zcli_inspect.dct");
        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "200",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&["train", "-i", &smi, "-o", &dct, "--quiet"])).unwrap();
        run(&argv(&["inspect", "-d", &dct, "-i", &smi])).unwrap();
        run(&argv(&["inspect", "-d", &dct])).unwrap();
        std::fs::remove_file(&smi).ok();
        std::fs::remove_file(&dct).ok();
    }

    #[test]
    fn stats_command() {
        let smi = tmp("zcli_stats.smi");
        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "50",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&["stats", "-i", &smi])).unwrap();
        std::fs::remove_file(&smi).ok();
    }

    #[test]
    fn screen_command_writes_scores() {
        let smi = tmp("zcli_screen.smi");
        let tsv = tmp("zcli_screen.tsv");
        run(&argv(&[
            "gen",
            "--profile",
            "mixed",
            "-n",
            "120",
            "-o",
            &smi,
            "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "screen",
            "-i",
            &smi,
            "--pocket-seed",
            "7",
            "--top",
            "3",
            "--scores",
            &tsv,
            "--quiet",
        ]))
        .unwrap();
        let table = vscreen::ScoreTable::read_tsv(std::fs::File::open(&tsv).unwrap()).unwrap();
        assert_eq!(table.len(), 120);
        // Deterministic: re-screening in process gives the same table.
        let ds = Dataset::load(Path::new(&smi)).unwrap();
        let again = vscreen::screen(&ds, &vscreen::Pocket::from_seed(7));
        assert_eq!(table, again);
        // The seed takes the same spellings as `query --pattern`.
        let screen_with = |seed: &str| {
            run(&argv(&[
                "screen",
                "-i",
                &smi,
                "--pocket-seed",
                seed,
                "--scores",
                &tsv,
                "--quiet",
            ]))
        };
        screen_with("0x7").unwrap();
        let hex = vscreen::ScoreTable::read_tsv(std::fs::File::open(&tsv).unwrap()).unwrap();
        assert_eq!(hex, again);
        let err = screen_with("seven").unwrap_err();
        assert!(err.contains("pocket seed"), "{err}");
        std::fs::remove_file(&smi).ok();
        std::fs::remove_file(&tsv).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&argv(&["bogus"])).is_err());
        assert!(run(&argv(&[
            "gen",
            "--profile",
            "nope",
            "-o",
            "/tmp/x",
            "-n",
            "1"
        ]))
        .is_err());
        assert!(run(&argv(&["train", "-i", "/nonexistent", "-o", "/tmp/x"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&argv(&["help"])).is_ok());
    }

    #[test]
    fn postprocess_flag_renumbers() {
        let smi = tmp("zcli_pp.smi");
        let dct = tmp("zcli_pp.dct");
        let zsmi = tmp("zcli_pp.zsmi");
        let back = tmp("zcli_pp_back.smi");
        std::fs::write(&smi, "C1CC1C2CC2\n").unwrap();
        run(&argv(&["train", "-i", &smi, "-o", &dct, "--quiet"])).unwrap();
        run(&argv(&[
            "compress", "-i", &smi, "-d", &dct, "-o", &zsmi, "--quiet",
        ]))
        .unwrap();
        run(&argv(&[
            "decompress",
            "-i",
            &zsmi,
            "-d",
            &dct,
            "-o",
            &back,
            "--postprocess",
            "--quiet",
        ]))
        .unwrap();
        let restored = std::fs::read_to_string(&back).unwrap();
        assert_eq!(
            restored.trim(),
            "C1CC1C1CC1",
            "conventional outermost-from-1 IDs"
        );
        for f in [&smi, &dct, &zsmi, &back] {
            std::fs::remove_file(f).ok();
        }
    }
}
