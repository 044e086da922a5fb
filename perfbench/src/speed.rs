//! The host's speed, from a fixed reference loop that is no part of the
//! program under test.
//!
//! The benchmark's hosts are small VMs on shared machines. How fast the
//! same code runs there drifts by a third from one minute to the next,
//! and it drifts for every workload at once (packing, random gets and
//! sweeps slow down together, while the guest's CPU time keeps pace with
//! the wall clock). Work that keeps every CPU busy drifts differently
//! from work on one: in one run a slow second vCPU halved the two-thread
//! packs while the one-thread gets kept pace. So each sample times the
//! loop twice, on one thread and then on every CPU at once (the mean of
//! their rates), and a metric is scaled by the speed measured with as
//! many CPUs busy as its own work keeps busy.
//!
//! The loop is sampled in every side slice of a run; the run's speed in
//! each mode is the upper quartile of its samples over that mode's
//! nominal rate (over ten-run sets, the median of the samples left the
//! scaled figures spread up to 0.155 of their median, the upper quartile
//! 0.134), and `e2e` scales every time and rate by it, so that a figure
//! reads what it would on the host at its nominal speed.
//!
//! The loop spends its time as the workloads do, in two halves. One is
//! a chain of dependent loads at random places in a table larger than
//! L2, each feeding the arithmetic that picks the next place (a random
//! get's index and payload reads). The other is arithmetic on a table
//! that stays in L1 (decoding, encoding and scoring). A slow host slows
//! the chain most: timed alone, from a fast to a slow spell it slowed by
//! more than twice as much as the sweeps and half again as much as the
//! gets, so scaling by it overcorrected.

use crate::stats::upper_quartile;
use std::time::Instant;

/// Chain table words: 4 MiB, more than a 2 MiB L2 and about the size of
/// the default deck's random-access working set.
const TABLE_WORDS: usize = 1 << 19;
/// Chain steps and arithmetic steps per timing: about 9 ms each on the
/// host in the README.
const CHAIN_STEPS: u64 = 1 << 17;
const ARITH_STEPS: u64 = 1 << 21;
/// Timings per second on the host in the README when it is fast, on one
/// thread and per thread with every CPU busy: the speeds every time and
/// rate is scaled to.
const NOMINAL_ONE: f64 = 56.0;
const NOMINAL_ALL: f64 = 50.0;

/// A run's speed relative to the nominal rates: above 1 when the host
/// ran faster.
#[derive(Clone, Copy, Debug)]
pub struct HostSpeed {
    pub one_cpu: f64,
    pub all_cpus: f64,
}

pub struct Speed {
    table: Vec<u64>,
    at: u64,
    one: Vec<f64>,
    all: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        let mut x = 0x5EED_u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x ^ (x >> 31)
            })
            .collect();
        Speed {
            table,
            at: 1,
            one: Vec::new(),
            all: Vec::new(),
        }
    }

    /// Time the reference loop on this thread, then on every CPU at once.
    pub fn sample(&mut self) {
        let (rate, x) = reference_loop(&self.table, self.at);
        self.one.push(rate);
        let threads = crate::nproc() as u64;
        let table = &self.table;
        let runs: Vec<(f64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| s.spawn(move || reference_loop(table, x.wrapping_add(k))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference loop panicked"))
                .collect()
        });
        self.at = runs.iter().fold(x, |acc, &(_, end)| acc ^ end);
        self.all
            .push(runs.iter().map(|&(r, _)| r).sum::<f64>() / threads as f64);
    }

    /// The run's speed over the samples so far.
    pub fn relative(&self) -> HostSpeed {
        for (mode, rates) in [("one CPU", &self.one), ("all CPUs", &self.all)] {
            let shown: Vec<String> = rates.iter().map(|r| format!("{r:.2}")).collect();
            eprintln!(
                "perfbench: reference loop on {mode}, per sample (1/s): [{}]",
                shown.join(", ")
            );
        }
        HostSpeed {
            one_cpu: upper_quartile(&self.one) / NOMINAL_ONE,
            all_cpus: upper_quartile(&self.all) / NOMINAL_ALL,
        }
    }
}

/// One timing of the loop from `x`: (timings per second, where it
/// ended).
fn reference_loop(table: &[u64], mut x: u64) -> (f64, u64) {
    let mask = (TABLE_WORDS - 1) as u64;
    let mut small = [0u64; 256];
    for (i, w) in small.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let t0 = Instant::now();
    for _ in 0..CHAIN_STEPS {
        let v = table[(x & mask) as usize];
        x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    for _ in 0..ARITH_STEPS {
        x = (x ^ small[(x & 255) as usize]).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 29;
    }
    (1.0 / t0.elapsed().as_secs_f64(), std::hint::black_box(x))
}
