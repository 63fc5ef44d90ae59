//! Host-speed calibration of `cover_batch`'s timings.
//!
//! The shared 2-core virtual machine the benchmark was tuned on runs at
//! two speeds and stays at one of them for up to 30 s, longer than a run,
//! so whole runs land on one speed or the other. A fixed kernel of
//! Gaussian kernel terms (`exp`) takes about 0.65 ms at the fast speed and
//! 0.9 ms at the slow one. Before each timed segment (a fit, an
//! `evaluate` chunk) the measuring thread times that kernel, and the
//! segment's times are scaled by [`NOMINAL_SECONDS`] over the kernel's
//! time, its rates by the inverse: the figures read as on a host where
//! the kernel takes [`NOMINAL_SECONDS`]. A change to the program moves
//! its times and not the kernel's, so it shows in full; a change of host
//! speed moves both.
//!
//! That holds only where the program's time follows the kernel chunk by
//! chunk. `cover_batch` spends it building kernel columns: over ten seeds
//! whose median factors ran from 0.70 to 1.06, its `evaluate` rate read
//! 18.2k-22.1k points/s unscaled and 23.5k-25.9k scaled. `wide_batch`'s
//! roll-up follows the kernel only in part and not always (in one set of
//! runs 24.3-25.1 points/s on the slow speed against 29.2-31.4 on the
//! fast; in another 26.9 on the fast against 25.7-27.1 on the slow), and
//! on the serve paths a closed-loop `/classify` burst ran 1.16x faster for
//! a 1.36x faster kernel and a burst of the read mix no faster at all.
//! Scaling those would add the host's speed rather than remove it, so
//! their timings are left as measured.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, the figures are scaled to: about what the
/// kernel takes at the faster of the two speeds above.
pub const NOMINAL_SECONDS: f64 = 0.65e-3;

/// Kernel terms: table entries times rounds.
const TABLE: usize = 2048;
const ROUNDS: u32 = 50;
/// Kernel timings per calibration; the fastest counts, so that an
/// interrupt inside one timing does not count as a slow host.
const TIMINGS: usize = 3;

pub struct Calibration {
    /// `None` when the workload's timings are left as measured.
    table: Option<Vec<f64>>,
}

impl Calibration {
    pub fn new(enabled: bool) -> Self {
        let calibration = Calibration {
            table: enabled.then(|| (0..TABLE).map(|i| i as f64 * 1e-3).collect()),
        };
        calibration.factor();
        calibration
    }

    /// The fastest of [`TIMINGS`] timings of the kernel, in seconds.
    fn kernel_seconds(table: &[f64]) -> f64 {
        (0..TIMINGS)
            .map(|_| {
                let table = black_box(table);
                let started = Instant::now();
                let mut acc = 0.0;
                for r in 0..ROUNDS {
                    let c = f64::from(r) * 2e-2;
                    for &x in table {
                        acc += (-(x - c) * (x - c) * 4.0).exp();
                    }
                }
                black_box(acc);
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Calibrates for the segment about to be timed: multiply its times
    /// by the factor, divide its rates by it. 1 when disabled.
    pub fn factor(&self) -> f64 {
        self.table
            .as_deref()
            .map_or(1.0, |t| NOMINAL_SECONDS / Self::kernel_seconds(t))
    }
}
