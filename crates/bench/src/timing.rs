//! The one sampler behind every timing `giallar bench --timings` writes.
//!
//! [`sample`] runs a routine once untimed (warm-up), then `n` timed times,
//! and summarises the wall clocks by nearest rank.  Every timed artifact
//! field renders through [`Timing::to_json`] inside a `timing` object, so
//! [`crate::strip_timing`] removes it and the drift gate stays
//! machine-independent.

use std::hint::black_box;
use std::time::Instant;

use giallar_core::gen::percentile;
use giallar_core::json::Value;

/// Timed runs per measurement under `giallar bench --timings` (odd, so the
/// median is a measured run).
pub const SAMPLES: usize = 11;

/// A sampled wall-clock measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median seconds per run.
    pub median: f64,
    /// 10th-percentile seconds per run (nearest rank).
    pub p10: f64,
    /// 90th-percentile seconds per run (nearest rank).
    pub p90: f64,
    /// Timed runs summarised.
    pub samples: usize,
    /// Worker threads the routine runs on (1 unless the caller says
    /// otherwise).
    pub threads: usize,
    /// Hardware threads of the machine, from
    /// [`std::thread::available_parallelism`].
    pub nproc: usize,
}

/// Runs `routine` once untimed, then `n` timed times (`n = 0` clamps to 1),
/// and returns the timing with the warm-up's output.  Timed outputs are
/// dropped outside the timed region.
pub fn sample<R>(n: usize, mut routine: impl FnMut() -> R) -> (Timing, R) {
    let warm = routine();
    let seconds = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            let output = black_box(routine());
            let elapsed = start.elapsed().as_secs_f64();
            drop(output);
            elapsed
        })
        .collect();
    (Timing::from_seconds(seconds), warm)
}

impl Timing {
    /// Summarises measured per-run seconds (single-threaded runs).
    fn from_seconds(mut seconds: Vec<f64>) -> Timing {
        seconds.sort_by(f64::total_cmp);
        Timing {
            median: percentile(&seconds, 50.0),
            p10: percentile(&seconds, 10.0),
            p90: percentile(&seconds, 90.0),
            samples: seconds.len(),
            threads: 1,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// The artifact rendering.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("median_seconds", Value::Float(self.median)),
            ("p10_seconds", Value::Float(self.p10)),
            ("p90_seconds", Value::Float(self.p90)),
            ("samples", Value::Int(self.samples as i64)),
            ("threads", Value::Int(self.threads as i64)),
            ("nproc", Value::Int(self.nproc as i64)),
        ])
    }
}

/// `numerator / denominator` of two medians, `1.0` when the denominator
/// rounds to zero (speedups and overhead ratios).
pub fn median_ratio(numerator: &Timing, denominator: &Timing) -> f64 {
    if denominator.median > 0.0 {
        numerator.median / denominator.median
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_summarises_by_nearest_rank() {
        let timing = Timing::from_seconds((1..=20).rev().map(f64::from).collect());
        assert_eq!((timing.median, timing.p10, timing.p90), (10.0, 2.0, 18.0));
        assert_eq!((timing.samples, timing.threads), (20, 1));
        assert!(timing.nproc >= 1);

        let one = Timing::from_seconds(vec![0.5]);
        assert_eq!((one.median, one.p10, one.p90, one.samples), (0.5, 0.5, 0.5, 1));

        let mut runs = 0;
        let (timing, warm) = sample(0, || {
            runs += 1;
            runs
        });
        assert_eq!((timing.samples, warm, runs), (1, 1, 2), "warm-up plus one timed run");
        assert!(timing.p10 <= timing.median && timing.median <= timing.p90);
    }
}
