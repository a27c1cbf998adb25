//! Order statistics for the latency and window-throughput figures.
//!
//! Latencies are reported as a median plus p99, and a p99 only where at
//! least [`MIN_BEYOND`] samples lie beyond it; the pooled highest such
//! percentile and the sample count are printed too, so a tail figure is
//! never read off a handful of points.

use crate::calib::{self, Kernel};
use free_gap_noise::rng::splitmix64;
use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down, in thousandths of a
/// percent (99_990 = p99.99).
const TAIL_CANDIDATES: [u64; 6] = [99_990, 99_900, 99_000, 95_000, 90_000, 75_000];

/// p99 in thousandths of a percent.
pub const P99: u64 = 99_000;

/// 1-based nearest rank of percentile `p` (thousandths of a percent) among
/// `n` samples, computed in integers so p99 of 1000 samples is rank 990
/// exactly.
fn nearest_rank(n: usize, p: u64) -> usize {
    let rank = (p as u128 * n as u128).div_ceil(100_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: u64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Nearest-rank percentile `p` of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], p: u64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` when empty. Sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median, the highest tail percentile with enough samples beyond it, and
/// the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile in thousandths of a percent, value)`.
    pub tail: Option<(u64, f64)>,
    /// p99, present only when at least [`MIN_BEYOND`] samples lie beyond it.
    pub p99: Option<f64>,
}

/// Summarizes `values` (sorted in place).
pub fn summarize(values: &mut [f64]) -> Summary {
    let p50 = median(values);
    let n = values.len();
    let tail = TAIL_CANDIDATES
        .iter()
        .find(|&&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(values, p)));
    let p99 = (n > 0 && beyond(n, P99) >= MIN_BEYOND).then(|| percentile(values, P99));
    Summary {
        samples: n,
        p50,
        tail,
        p99,
    }
}

/// Latencies kept per client: a uniform sample of at most this many, so a
/// long run's latency record takes bounded memory (and the peak RSS does not
/// grow with throughput).
const RESERVOIR_CAP: usize = 1 << 20;

/// A uniform sample of at most `cap` values of a stream (Algorithm R).
#[derive(Debug, Clone)]
pub struct Reservoir {
    /// Values offered.
    pub seen: u64,
    pub kept: Vec<f64>,
    cap: usize,
    state: u64,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            seen: 0,
            kept: Vec::new(),
            cap,
            state: seed,
        }
    }

    #[inline]
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(v);
        } else {
            let j = (splitmix64(&mut self.state) % self.seen) as usize;
            if j < self.cap {
                self.kept[j] = v;
            }
        }
    }
}

/// One thread's completed operations, their latencies and the
/// calibration kernel's times ([`crate::calib`]) per fixed wall-clock
/// window of a measurement. A window's rate is its completions over the
/// time between its first and last completion, so it is not quantized to
/// whole operations.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    width_ns: u128,
    /// Per window: completions, first and last completion (ns from start).
    counts: Vec<(u64, u128, u128)>,
    /// Per window: a sample of the latencies, µs.
    latencies: Vec<Reservoir>,
    /// Per window: the calibration kernel's times, µs.
    cal: Vec<Vec<f64>>,
    kernel: Kernel,
    next_cal: Instant,
}

/// Windows a measurement is cut into.
pub const WINDOWS: usize = 10;

impl Windows {
    /// `WINDOWS` equal windows covering `total` from `start`.
    pub fn new(start: Instant, total: Duration, seed: u64) -> Self {
        let width_ns = (total.as_nanos() / WINDOWS as u128).max(1);
        let passes = (width_ns / calib::PERIOD.as_nanos()) as usize + 1;
        Self {
            start,
            width_ns,
            counts: vec![(0, 0, 0); WINDOWS],
            latencies: (0..WINDOWS as u64)
                .map(|w| Reservoir::new(RESERVOIR_CAP / WINDOWS, seed ^ w))
                .collect(),
            cal: (0..WINDOWS).map(|_| Vec::with_capacity(passes)).collect(),
            kernel: Kernel::new(seed),
            next_cal: start,
        }
    }

    fn window(&self, at: Instant) -> (usize, u128) {
        let ns = at.duration_since(self.start).as_nanos();
        ((ns / self.width_ns) as usize, ns)
    }

    /// Times a calibration pass when one is due (one per
    /// [`calib::PERIOD`]); call between operations.
    #[inline]
    pub fn calibrate(&mut self) {
        let now = Instant::now();
        if now < self.next_cal {
            return;
        }
        let us = self.kernel.time_us();
        let (w, _) = self.window(now);
        if let Some(c) = self.cal.get_mut(w) {
            c.push(us);
        }
        self.next_cal = now + calib::PERIOD;
    }

    /// Records one operation completed at `at` after `latency_us`;
    /// completions after the last window (the operation in flight at the
    /// deadline) are dropped.
    #[inline]
    pub fn record(&mut self, at: Instant, latency_us: f64) {
        let (w, ns) = self.window(at);
        if let Some(c) = self.counts.get_mut(w) {
            if c.0 == 0 {
                c.1 = ns;
            }
            c.0 += 1;
            c.2 = ns;
            self.latencies[w].push(latency_us);
        }
    }

    /// The factor that brings window `w`'s times to the reference speed:
    /// [`calib::REF_US`] over the kernel's median time in it (`None`
    /// without a calibration pass).
    fn scale(&self, w: usize) -> Option<f64> {
        let cal = &self.cal[w];
        (!cal.is_empty()).then(|| calib::REF_US / median(&mut cal.clone()))
    }

    /// The median factor of the windows (see [`Windows::scale`]).
    pub fn median_scale(&self) -> f64 {
        median(
            &mut (0..WINDOWS)
                .filter_map(|w| self.scale(w))
                .collect::<Vec<_>>(),
        )
    }

    /// The rate in window `w`, ops/s.
    fn rate(&self, w: usize) -> f64 {
        let (n, first, last) = self.counts[w];
        if n >= 2 && last > first {
            (n - 1) as f64 * 1e9 / (last - first) as f64
        } else {
            n as f64 * 1e9 / self.width_ns as f64
        }
    }

    /// All kept latency samples, µs.
    pub fn pooled(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .flat_map(|r| r.kept.iter().copied())
            .collect()
    }

    /// Operations recorded (kept or not).
    pub fn seen(&self) -> u64 {
        self.latencies.iter().map(|r| r.seen).sum()
    }
}

/// A measurement's end-to-end figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Operations per second.
    pub rate: f64,
    /// Latency, µs.
    pub p50: f64,
    /// Latency, µs; `None` when not even all cells pooled hold ten samples
    /// beyond their p99.
    pub p99: Option<f64>,
    /// Cells holding samples, and those holding enough for a p99.
    pub cells: usize,
    pub p99_cells: usize,
}

/// Reads the figures of a measurement from the windows of its threads
/// (same start and width). A cell is one thread's window; its latencies
/// and rate are first brought to the reference speed by the window's
/// calibration ([`Windows::scale`]; cells without one are left out). The
/// p50 is the median of the cells' medians, the rate the median of the
/// cells' rates, or with `add_rates` (concurrent clients of one server) of
/// the windows' rates added over the threads. The p99 is the lowest of the
/// cells' p99s (from cells with ten samples beyond it): besides its speed,
/// a shared host stalls single operations now and then, in bursts, and a
/// stall only ever lengthens the tail, so the quietest window's p99 is the
/// program's own and the steadiest reading of it.
pub fn figures(threads: &[Windows], add_rates: bool) -> Figures {
    let scaled = |t: &Windows, w: usize| t.scale(w).map(|k| t.rate(w) / k);
    let mut rates: Vec<f64> = if add_rates {
        (0..WINDOWS)
            .filter_map(|w| threads.iter().map(|t| scaled(t, w)).sum())
            .collect()
    } else {
        threads
            .iter()
            .flat_map(|t| (0..WINDOWS).filter_map(move |w| scaled(t, w)))
            .collect()
    };
    let mut scaled_cells: Vec<Vec<f64>> = threads
        .iter()
        .flat_map(|t| {
            (0..WINDOWS).filter_map(move |w| {
                let kept = &t.latencies[w].kept;
                let k = t.scale(w).filter(|_| !kept.is_empty())?;
                Some(kept.iter().map(|v| v * k).collect())
            })
        })
        .collect();
    let cells: Vec<Summary> = scaled_cells.iter_mut().map(|c| summarize(c)).collect();
    let p99s: Vec<f64> = cells.iter().filter_map(|c| c.p99).collect();
    let p99_cells = p99s.len();
    // With no cell large enough (a short run), the p99 of all cells pooled.
    let p99 = p99s
        .into_iter()
        .min_by(f64::total_cmp)
        .or_else(|| summarize(&mut scaled_cells.concat()).p99);
    Figures {
        rate: median(&mut rates),
        p50: median(&mut cells.iter().map(|c| c.p50).collect::<Vec<_>>()),
        p99,
        p99_cells,
        cells: cells.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten samples beyond — reported.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p99, Some(990.0));
        assert_eq!(s.p50, 500.5);
        // p99.9 has only one sample beyond it, so p99 is the highest tail.
        assert_eq!(s.tail, Some((P99, 990.0)));
        // 999 samples: rank 990 leaves nine beyond — p99 withheld, p95 is
        // the highest tail with ten beyond it.
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.p99, None);
        assert_eq!(s.tail, Some((95_000, 950.0)));
    }

    #[test]
    fn highest_qualifying_tail_is_chosen() {
        let mut v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let s = summarize(&mut v);
        assert_eq!(s.tail, Some((99_990, 99_990.0)));
        assert_eq!(beyond(100_000, 99_990), 10);
        // Too few samples for any tail.
        let mut v = vec![1.0; 12];
        assert_eq!(summarize(&mut v).tail, None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.seen, 100_000);
        assert_eq!(r.kept.len(), 1000);
        // A uniform sample of 0..100k has its median near 50k.
        let m = median(&mut r.kept.clone());
        assert!((m - 50_000.0).abs() < 5_000.0, "median {m}");
        let mut small = Reservoir::new(1000, 7);
        (0..10).for_each(|i| small.push(f64::from(i)));
        assert_eq!(small.kept.len(), 10);
    }

    /// `n` completions spread evenly over the first 990 ms of window `i`
    /// (of 1 s), the `j`-th taking `lat(j)` µs, and a calibration pass at
    /// the reference speed.
    fn fill(w: &mut Windows, start: Instant, i: u64, n: u64, lat: impl Fn(u64) -> f64) {
        for j in 0..n {
            w.record(
                start + Duration::from_millis(i * 1000 + 990 * j / n),
                lat(j),
            );
        }
        w.cal[i as usize].push(calib::REF_US);
    }

    #[test]
    fn cells_are_read_at_the_reference_speed() {
        // Window 0 ran at half the reference speed, window 1 at it: both
        // read as 10 µs and 100 ops/s. A window without a calibration pass
        // is left out.
        let start = Instant::now();
        let mut w = Windows::new(start, Duration::from_secs(WINDOWS as u64), 1);
        fill(&mut w, start, 0, 50, |_| 20.0);
        w.cal[0] = vec![2.0 * calib::REF_US; 3];
        fill(&mut w, start, 1, 100, |_| 10.0);
        w.record(start + Duration::from_millis(2500), 1.0);
        let f = figures(std::slice::from_ref(&w), false);
        assert_eq!((f.p50, f.cells), (10.0, 2));
        assert_eq!(w.median_scale(), 0.75);
        let (slow, fast): (f64, f64) = (49.0 * 2e9 / 970e6, 99.0 * 1e9 / 980e6);
        assert!((slow - 101.0).abs() < 0.1 && (fast - 101.0).abs() < 0.1);
        assert!((f.rate - (slow + fast) / 2.0).abs() < 1e-6, "{}", f.rate);
        // A due pass is timed into the current window, then none until the
        // period has passed.
        let mut live = Windows::new(Instant::now(), Duration::from_secs(60), 1);
        live.calibrate();
        live.calibrate();
        assert_eq!(live.cal[0].len(), 1);
        assert!(live.cal[0][0] > 0.0);
    }

    #[test]
    fn figures_read_the_median_cell_and_the_quietest_tail() {
        let start = Instant::now();
        let total = Duration::from_secs(WINDOWS as u64);
        let mut w = Windows::new(start, total, 1);
        // A bare majority of the windows run fast: 2000 completions of
        // 1..=2000 µs. The others run slow: 1000 of three times that.
        let fast = WINDOWS as u64 / 2 + 1;
        for i in 0..WINDOWS as u64 {
            if i < fast {
                fill(&mut w, start, i, 2000, |j| (j + 1) as f64);
            } else {
                fill(&mut w, start, i, 1000, |j| 3.0 * (j + 1) as f64);
            }
        }
        // 1999 intervals over 989 ms (990 * 1999 / 2000, in whole ms).
        let f = figures(std::slice::from_ref(&w), false);
        assert!((f.rate - 1999.0 * 1e9 / 989e6).abs() < 1e-6, "{}", f.rate);
        assert_eq!(f.p50, 1000.5);
        // The lowest cell p99: rank 1980 of a fast window's 2000.
        assert_eq!(f.p99, Some(1980.0));
        assert_eq!((f.cells, f.p99_cells), (WINDOWS, WINDOWS));
        // Completions past the last window are dropped.
        w.record(start + total + Duration::from_secs(1), 5.0);
        let seen = fast * 2000 + (WINDOWS as u64 - fast) * 1000;
        assert_eq!(w.seen(), seen);
        assert_eq!(w.pooled().len() as u64, seen);
        // 500 samples per cell: too few for a p99 in any one cell.
        let mut thin = Windows::new(start, total, 1);
        fill(&mut thin, start, 0, 500, |j| j as f64);
        fill(&mut thin, start, 1, 500, |j| j as f64);
        let f = figures(&[thin.clone()], false);
        assert_eq!((f.cells, f.p99_cells), (2, 0));
        // The 1000 samples pooled: p99 is rank 990, 0..500 twice over.
        assert_eq!(f.p99, Some(494.0));
        let mut one = Windows::new(start, total, 1);
        fill(&mut one, start, 0, 500, |j| j as f64);
        assert_eq!(figures(&[one], false).p99, None);
    }

    #[test]
    fn threads_are_cells_and_clients_add_up() {
        // Thread 0 runs slow throughout (50 completions of 20 µs per
        // window), thread 1 fast (100 of 10 µs).
        let start = Instant::now();
        let total = Duration::from_secs(WINDOWS as u64);
        let threads: Vec<Windows> = (0..2u64)
            .map(|t| {
                let mut w = Windows::new(start, total, t);
                let (n, lat) = if t == 0 { (50, 20.0) } else { (100, 10.0) };
                for i in 0..WINDOWS as u64 {
                    fill(&mut w, start, i, n, |_| lat);
                }
                w
            })
            .collect();
        // 49 intervals over 970 ms, 99 over 980 ms.
        let (slow, fast) = (49.0 * 1e9 / 970e6, 99.0 * 1e9 / 980e6);
        // Replicas: twice WINDOWS cells, half of each kind; the p99 comes
        // from all cells pooled (none holds 1000 samples), two thirds of
        // them fast.
        let replicas = figures(&threads, false);
        assert_eq!((replicas.cells, replicas.p50), (2 * WINDOWS, 15.0));
        assert!((replicas.rate - (slow + fast) / 2.0).abs() < 1e-6);
        assert_eq!(replicas.p99, Some(20.0));
        // Clients of one server: every window's rates add up.
        let clients = figures(&threads, true);
        assert!(
            (clients.rate - (slow + fast)).abs() < 1e-6,
            "{}",
            clients.rate
        );
    }
}
