//! A fixed calibration kernel, timed alongside a workload so its figures
//! read at a reference machine speed.
//!
//! The shared host this benchmark is sized for slows a core by up to 1.5x
//! for minutes at a time, and by different amounts for different code:
//! loops that keep several execution units busy (noise fills, `ln`
//! transforms, scans) slow, a dependent chain of multiplies barely does,
//! as when another tenant runs on the core's hyperthread sibling. Every
//! latency a run reports is therefore scaled by `REF_US / t`, and every
//! rate by its inverse, with `t` the median time of this kernel measured on
//! the same thread in the same window. The kernel is the benchmark's own code,
//! so a change to the program moves the figures and never the kernel; it
//! does the kind of work the program's hot loops do (uniform draws, `ln`
//! transforms, a top-k scan over a slab), so it slows with them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Values per kernel pass.
const LEN: usize = 4096;
/// Top values the pass keeps.
const TOP: usize = 10;
/// The kernel's median time on a fast core of the reference machine (a
/// 2-vCPU Intel Xeon guest), µs. The figures are in µs at this speed.
pub const REF_US: f64 = 60.0;
/// Time between two timed passes on one thread: about 1% of its time.
pub const PERIOD: Duration = Duration::from_millis(5);

/// The kernel's state: its slab and generator.
#[derive(Debug, Clone)]
pub struct Kernel {
    buf: Vec<f64>,
    state: u64,
}

impl Kernel {
    pub fn new(seed: u64) -> Self {
        Self {
            buf: vec![0.0; LEN],
            state: seed,
        }
    }

    /// Runs one pass: fills the slab with exponential draws from a
    /// splitmix64 stream and scans it for its top values. Returns its time,
    /// µs.
    pub fn time_us(&mut self) -> f64 {
        let t0 = Instant::now();
        for v in &mut self.buf {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = ((z >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
            *v = -u.ln();
        }
        let mut top = [f64::NEG_INFINITY; TOP];
        for &v in &self.buf {
            if v > top[TOP - 1] {
                top[TOP - 1] = v;
                top.sort_by(|a, b| b.total_cmp(a));
            }
        }
        black_box(&top);
        t0.elapsed().as_nanos() as f64 / 1e3
    }

    /// Median time of `passes` passes, µs.
    pub fn median_us(&mut self, passes: usize) -> f64 {
        let mut times: Vec<f64> = (0..passes).map(|_| self.time_us()).collect();
        crate::stats::median(&mut times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_draws_fresh_values() {
        let mut k = Kernel::new(1);
        assert!(k.time_us() > 0.0);
        let first = k.buf.clone();
        k.time_us();
        assert_ne!(first, k.buf);
        assert!(k.buf.iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(k.median_us(3) > 0.0);
    }
}
