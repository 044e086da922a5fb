//! Sample buffers and order statistics.

use std::time::Instant;

/// A bounded latency sample: keeps every value until `cap` is reached,
/// then halves itself and keeps every second value from then on, so the
/// kept samples stay spread evenly over the whole run while memory stays
/// fixed. Allocated up front, so recording never touches the heap.
pub struct Samples {
    v: Vec<u64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Samples {
        let cap = cap.max(2);
        Samples {
            v: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, x: u64) {
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !keep {
            return;
        }
        if self.v.len() == self.cap {
            let mut j = 0;
            for i in (0..self.v.len()).step_by(2) {
                self.v[j] = self.v[i];
                j += 1;
            }
            self.v.truncate(j);
            self.stride *= 2;
            if !(self.seen - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.v.push(x);
    }

    pub fn into_sorted(mut self) -> Vec<u64> {
        self.v.sort_unstable();
        self.v
    }
}

/// Operations and their latencies in consecutive quarter-second windows of
/// one segment of a timed section. Metrics are taken per complete window
/// ([`ops_s`], [`latency`]) and summarised over the windows of every
/// segment, so a burst of outside load moves a few windows, not the
/// result.
pub struct Windows {
    start: Instant,
    /// Window length: the segment split evenly into windows of about
    /// `WINDOW_SECS`, or the whole segment when shorter.
    len: f64,
    /// Complete windows; index `full` collects what runs past the end.
    full: usize,
    ops: Vec<u64>,
    lat: Vec<Samples>,
}

pub const WINDOW_SECS: f64 = 0.25;

impl Windows {
    /// Windows for a segment of `secs` seconds, each keeping up to `cap`
    /// latency samples (allocated here, up front).
    pub fn new(secs: f64, cap: usize) -> Windows {
        let full = ((secs / WINDOW_SECS).round() as usize).max(1);
        Windows {
            start: Instant::now(),
            len: secs / full as f64,
            full,
            ops: vec![0; full + 1],
            lat: (0..=full).map(|_| Samples::with_capacity(cap)).collect(),
        }
    }

    /// The segment starts now.
    pub fn begin(&mut self, start: Instant) {
        self.start = start;
    }

    fn index(&self, now: Instant) -> usize {
        let k = (now.saturating_duration_since(self.start).as_secs_f64() / self.len) as usize;
        k.min(self.full)
    }

    /// One operation completed at `now`.
    pub fn op(&mut self, now: Instant) {
        let k = self.index(now);
        self.ops[k] += 1;
    }

    /// One operation completed at `now` after `lat_ns`.
    pub fn op_lat(&mut self, now: Instant, lat_ns: u64) {
        let k = self.index(now);
        self.ops[k] += 1;
        self.lat[k].push(lat_ns);
    }

    /// Every kept latency, sorted.
    pub fn pooled(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.lat.iter().flat_map(|s| s.v.iter().copied()).collect();
        all.sort_unstable();
        all
    }
}

/// Operations per second in each complete window of every segment; with
/// `other` (a second connection's windows, segment for segment), of both
/// connections' operations together.
pub fn ops_s(segments: &[Windows], other: Option<&[Windows]>) -> Vec<f64> {
    let mut per = Vec::new();
    for (k, w) in segments.iter().enumerate() {
        for j in 0..w.full {
            let extra = other.map_or(0, |o| o[k].ops[j]);
            per.push((w.ops[j] + extra) as f64 / w.len);
        }
    }
    per
}

/// The `p`-quantile latency of each complete window of every segment.
pub fn latency(segments: &[Windows], p: f64) -> Vec<f64> {
    let mut per = Vec::new();
    for w in segments {
        for j in 0..w.full {
            let mut v = w.lat[j].v.clone();
            v.sort_unstable();
            if !v.is_empty() {
                per.push(quantile(&v, p));
            }
        }
    }
    per
}

/// The `p`-quantile (0..=1) of sorted values, linearly interpolated
/// between the two nearest ranks.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The upper quartile of unsorted measurements, interpolated as
/// [`quantile`] does.
pub fn upper_quartile(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = 0.75 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a set of measurements.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: the benchmark's seeded source of line numbers and pocket
/// seeds.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_decimate_evenly() {
        let mut s = Samples::with_capacity(8);
        for x in 0..100u64 {
            s.push(x);
        }
        assert_eq!(s.seen, 100);
        let v = s.into_sorted();
        assert!(v.len() <= 8 && v.len() >= 4, "{v:?}");
        let step = v[1] - v[0];
        assert!(v.windows(2).all(|w| w[1] - w[0] == step), "{v:?}");
        assert_eq!(v[0], 0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let xs: Vec<f64> = (0..=10).rev().map(|x| f64::from(x) * 10.0).collect();
        assert_eq!(upper_quartile(&xs), 75.0);
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        for _ in 0..1000 {
            let x = a.below(13);
            assert_eq!(x, b.below(13));
            assert!(x < 13);
        }
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
    }
}
