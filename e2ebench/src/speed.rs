//! The host CPU's speed, sampled with a fixed kernel, so host times can
//! be reported at one reference speed.
//!
//! On a shared host the CPU's speed is not constant: on the 2-core machine
//! this benchmark was built on, a fixed spin loop's rate varied by ±25% in
//! phases lasting seconds to minutes. That moved raw job times by as much
//! from one process to the next, whatever code ran. The kernel below is
//! part of this benchmark, not of the code under test, so it is the same
//! on every commit. Its time tracks the host's speed, and dividing by it
//! removes that speed from the job times: a raw time `t` measured while
//! the kernel takes `k` ms is reported as `t × REFERENCE_MS / k`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ms, that defines the reference speed. It is close to
/// the kernel's median on the host the benchmark was built on, so reported
/// times read close to raw ones there.
pub const REFERENCE_MS: f64 = 1.5;

/// Hash-table updates per kernel run.
const KERNEL_STEPS: u64 = 40_000;

/// How many kernel samples, nearest in time, a scale is the median of.
const NEAREST: usize = 6;

/// Kernel samples, each with the time it was taken.
#[derive(Debug)]
pub struct HostSpeed {
    epoch: Instant,
    /// `(seconds since creation, kernel ms)`, in time order.
    samples: Vec<(f64, f64)>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

impl HostSpeed {
    /// A sampler with no samples yet.
    pub fn new() -> Self {
        HostSpeed {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since creation, the time base of [`HostSpeed::scale_at`].
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs the kernel once and records its host time. The kernel hashes
    /// into a fresh table and makes short-lived heap allocations, as the
    /// compiler and the engines do: a kernel without allocations was
    /// measured to miss much of the slow-down the jobs see.
    pub fn sample(&mut self) {
        let at = self.now();
        let t = Instant::now();
        let mut table: HashMap<u64, u64> = HashMap::with_capacity(4096);
        let mut boxes: Vec<Box<u64>> = Vec::new();
        let mut x = 1u64;
        for i in 0..KERNEL_STEPS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = z ^ (z >> 27);
            *table.entry(z & 4095).or_insert(0) += i;
            if i % 8 == 0 {
                boxes.push(Box::new(z));
            }
            if boxes.len() > 256 {
                boxes.clear();
            }
        }
        black_box((table, boxes));
        self.samples.push((at, t.elapsed().as_secs_f64() * 1e3));
    }

    /// Samples the kernel [`NEAREST`] times and returns the scale those
    /// samples give.
    pub fn fresh_scale(&mut self) -> f64 {
        for _ in 0..NEAREST {
            self.sample();
        }
        let fresh = &self.samples[self.samples.len() - NEAREST..];
        REFERENCE_MS / median(fresh.iter().map(|s| s.1).collect())
    }

    /// The factor that turns host time measured at `t` (from
    /// [`HostSpeed::now`]) into time at the reference speed:
    /// `REFERENCE_MS` over the median of the [`NEAREST`] samples around
    /// `t`, half before and half after.
    pub fn scale_at(&self, t: f64) -> f64 {
        assert!(!self.samples.is_empty(), "sample the host before scaling");
        let i = self.samples.partition_point(|s| s.0 < t);
        let lo = i.saturating_sub(NEAREST / 2);
        let hi = (i + NEAREST / 2).min(self.samples.len());
        REFERENCE_MS / median(self.samples[lo..hi].iter().map(|s| s.1).collect())
    }

    /// The median kernel time over every sample, ms, and the sample count.
    pub fn summary(&self) -> (f64, usize) {
        let ms = self.samples.iter().map(|s| s.1).collect();
        (median(ms), self.samples.len())
    }
}
