//! The zsmiles benchmark: four closed-loop workloads over a seeded
//! deck, every output checked, one JSON result line.
//!
//! ```text
//! perfbench --workload pack|get|serve_get|serve_screen --seed N
//!           --seconds S --trace 0|1 [--lines N] [--setup-reps N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (see `e2e.rs`);
//! `--trace 1` replays samples of every workload's operations through
//! the layers' public functions and reports the per-layer table (see
//! `trace.rs`). The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod deck;
mod e2e;
mod host;
mod sched;
mod serve;
mod speed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pack,
    Get,
    ServeGet,
    ServeScreen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pack,
        Workload::Get,
        Workload::ServeGet,
        Workload::ServeScreen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pack => "pack",
            Workload::Get => "get",
            Workload::ServeGet => "serve_get",
            Workload::ServeScreen => "serve_screen",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lines: usize,
    pub setup_reps: usize,
    pub work_dir: PathBuf,
}

/// Deck lines when `--lines` is not given: enough that the random-access
/// working set (payload plus index) is larger than a 2 MiB L2.
const DEFAULT_LINES: usize = 80_000;
/// Deck lines of the untraced `serve_screen` run: each `TOP_HITS` sweeps
/// the whole deck, and a small deck makes sweeps short enough that a run
/// holds over a hundred of them. Whether a sweep holds up connection A's
/// gets is close to a coin toss per sweep, so A's rate is only steady
/// over many sweeps.
const SCREEN_LINES: usize = 16_000;
/// Set-ups per run; `setup_s` is their median.
const DEFAULT_SETUP_REPS: usize = 3;
/// Where runs put their decks, relative to the checkout root; each run
/// works in a subdirectory of its own and removes it at exit.
const WORK_DIR: &str = ".perfbench_work";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut lines = None;
    let mut setup_reps = DEFAULT_SETUP_REPS;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: '{val}' is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or_else(|| bad("a workload (pack, get, serve_get, serve_screen)"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--lines" => {
                lines = Some(
                    val.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1000)
                        .ok_or_else(|| bad("a line count of at least 1000"))?,
                )
            }
            "--setup-reps" => {
                setup_reps = val
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad("a positive count"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let lines = lines.unwrap_or(if workload == Workload::ServeScreen && !trace {
        SCREEN_LINES
    } else {
        DEFAULT_LINES
    });
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        lines,
        setup_reps,
        work_dir: PathBuf::from(WORK_DIR),
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A run's result: correctness, operation counts, named metrics.
#[derive(Default)]
pub struct Report {
    /// Raw bytes of the deck the run used (provenance).
    pub deck_bytes: usize,
    pub failed_checks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The host's speed over the run (see `speed`), when measured.
    pub host_speed: Option<speed::HostSpeed>,
}

impl Report {
    /// Set (or replace) a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Scale every time (unit `s` or `ns`) and rate (a unit per second)
    /// to the host's nominal speed: a time measured on a host running at
    /// speed `x` is `x` times the nominal one, a rate is divided by it.
    /// `x` is the speed with every CPU busy for the metrics `all_cpus`
    /// names, else the one-CPU speed. Sizes and ratios stay as measured.
    /// The measured values go to stderr.
    pub fn scale_to_nominal(&mut self, all_cpus: impl Fn(&str) -> bool) {
        let Some(hs) = self.host_speed else {
            return;
        };
        eprintln!("perfbench: host speed {hs:?} x nominal; as measured:");
        for (name, value, unit) in &mut self.metrics {
            eprintln!("perfbench:   {name} = {value} {unit}");
            let speed = if all_cpus(name) {
                hs.all_cpus
            } else {
                hs.one_cpu
            };
            if matches!(*unit, "s" | "ns") {
                *value *= speed;
            } else if unit.ends_with("/s") {
                *value /= speed;
            }
        }
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Record a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failed_checks.push(what.to_string());
        }
    }

    fn to_json(&self) -> String {
        let mut bad = Vec::new();
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    bad.push(name.as_str());
                    "0.0".to_string()
                };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    host::json_str(name),
                    host::json_str(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        for name in &bad {
            eprintln!("perfbench: CHECK FAILED: metric {name} is not a finite number");
        }
        let correct = self.failed_checks.is_empty() && bad.is_empty() && self.failed == 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let args = Args { work_dir, ..args };
    let result = if args.trace {
        trace::run(&args)
    } else {
        e2e::run(&args)
    };
    std::fs::remove_dir_all(&args.work_dir).ok();
    if let Some(parent) = args.work_dir.parent() {
        // Only succeeds once no other run is using it.
        std::fs::remove_dir(parent).ok();
    }
    match result {
        Ok(report) => {
            println!(
                "{}",
                host::provenance(&host::Inputs {
                    workload: args.workload.name(),
                    seed: args.seed,
                    seconds: args.seconds,
                    trace: args.trace,
                    deck_lines: args.lines,
                    deck_bytes: report.deck_bytes,
                    shards: deck::SHARDS,
                    threads: nproc(),
                    host_speed: report.host_speed,
                })
            );
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
