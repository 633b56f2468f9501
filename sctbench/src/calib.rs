//! Host-speed calibration of the end-to-end times.
//!
//! On a host whose cores are shared with other tenants, the speed at which
//! one core runs this program drifts by 20–45 % within seconds to minutes,
//! with no steal time: a neighbour on the same physical core competes for
//! its caches and execution units. A run-to-run spread that large hides any
//! regression the bounds are meant to catch, and a longer run does not
//! average it away.
//!
//! So the benchmark times a fixed reference kernel ([`kernel`]) right
//! before and right after every timed unit of work (a trial, or a `figures`
//! process), and scales the unit's host time by [`NOMINAL_S`] ÷ the mean of
//! the two kernel times ([`Calibrator::factor`]). The kernel is the
//! benchmark's own code, which no change to the simulator touches: a small
//! discrete-event loop of the simulator's kind (a binary-heap event queue,
//! exponential draws, per-server stream vectors advanced, filtered and
//! re-sorted at every event, one formatted record per event). It slows down
//! with the host much as the simulator does, so the scaled time follows the
//! program and not the neighbours. Scaled times are in *reference seconds*:
//! host seconds on a host that runs the kernel in [`NOMINAL_S`]. The report
//! keeps the measured speed ([`NOMINAL_S`] ÷ kernel time) beside them.
//!
//! The match is not exact for every workload. When the host slows, the
//! Large simulation slows by about 1.17 times as much as the kernel (in log
//! terms), so a workload can raise the ratio to a power, its *elasticity*
//! ([`Calibrator::new`]). Kernels shaped like the Large or `dense` systems,
//! or walking an L2- or memory-sized table, tracked the simulator worse
//! than this one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one [`kernel`] run at the reference speed: its time on
/// the reference host when no neighbour competes for the core (see
/// README.md).
pub const NOMINAL_S: f64 = 0.008;
/// Events of one [`kernel`] run.
const KERNEL_EVENTS: u32 = 20_000;
/// Servers of the reference loop, and view slots per server.
const SERVERS: usize = 16;
const SLOTS: usize = 33;
/// Formatted records kept before the reference loop's log is cleared.
const LOG_RECORDS: usize = 256;

/// One stream of the reference loop, in megabits and seconds.
#[derive(Clone, Copy, Debug)]
struct Flow {
    rate: f64,
    sent: f64,
    size: f64,
    deadline: f64,
}

/// xorshift64 draws in (0, 1).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// The queue key of a simulated time: whole microseconds.
fn key(t: f64) -> u64 {
    (t * 1e6) as u64
}

/// Runs the reference loop for `events` events and returns a checksum of
/// its outcome, which repeats exactly from run to run.
///
/// Arrivals come at exponential gaps and pick a server with a skewed draw;
/// a full server rejects. At every event the server's streams advance,
/// finished ones leave, the rest are re-sorted by deadline and given rates
/// from the server's capacity, and the server's next completion is pushed
/// with a generation that voids its earlier wake.
pub fn reference_loop(events: u32) -> u64 {
    const ARRIVAL: u64 = u64::MAX;
    let mut draw = Draws(0x9E37_79B9_7F4A_7C15);
    let mut servers: Vec<Vec<Flow>> = (0..SERVERS)
        .map(|_| Vec::with_capacity(SLOTS + 1))
        .collect();
    let mut last = [0.0f64; SERVERS];
    let mut generation = [0u64; SERVERS];
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    queue.push(Reverse((0, ARRIVAL, 0)));
    let mut log: Vec<String> = Vec::with_capacity(LOG_RECORDS);
    let (mut finished, mut rejected, mut bytes) = (0u64, 0u64, 0u64);
    for _ in 0..events {
        let Reverse((at, tag, server)) = queue.pop().expect("an arrival is always pending");
        let t = at as f64 / 1e6;
        let k = if tag == ARRIVAL {
            queue.push(Reverse((key(t - draw.next().ln() * 0.5), ARRIVAL, 0)));
            let k = (draw.next() * draw.next() * SERVERS as f64) as usize;
            if servers[k].len() >= SLOTS {
                rejected += 1;
                continue;
            }
            k
        } else if tag != generation[server] {
            continue;
        } else {
            server
        };
        let dt = t - last[k];
        last[k] = t;
        let flows = &mut servers[k];
        for f in flows.iter_mut() {
            f.sent += f.rate * dt;
        }
        let before = flows.len();
        flows.retain(|f| f.sent < f.size - 1e-9);
        finished += (before - flows.len()) as u64;
        if tag == ARRIVAL {
            flows.push(Flow {
                rate: 0.0,
                sent: 0.0,
                size: 50.0 + 100.0 * draw.next(),
                deadline: t + 60.0 + 120.0 * draw.next(),
            });
        }
        flows.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
        let mut left = 40.0f64;
        for f in flows.iter_mut() {
            let need = 1.0 + (f.size - f.sent) / (f.deadline - t).max(1.0);
            f.rate = left.clamp(0.0, 3.0).min(need);
            left -= f.rate;
        }
        let next = flows
            .iter()
            .map(|f| (f.size - f.sent) / f.rate.max(1e-6))
            .fold(f64::INFINITY, f64::min);
        generation[k] += 1;
        if next.is_finite() {
            queue.push(Reverse((key(t + next + 1e-6), generation[k], k)));
        }
        if log.len() == LOG_RECORDS {
            bytes += log.iter().map(|r| r.len() as u64).sum::<u64>();
            log.clear();
        }
        log.push(format!(
            "{{\"t\":{t:.3},\"server\":{k},\"active\":{},\"left\":{left:.2}}}",
            flows.len()
        ));
    }
    finished ^ rejected.rotate_left(21) ^ bytes.rotate_left(42) ^ log.len() as u64
}

/// Host seconds of one run of the reference kernel.
pub fn kernel() -> f64 {
    let start = Instant::now();
    black_box(reference_loop(black_box(KERNEL_EVENTS)));
    start.elapsed().as_secs_f64()
}

/// Brackets consecutive units of work with kernel runs: the kernel after
/// one unit is the kernel before the next.
#[derive(Debug)]
pub struct Calibrator {
    elasticity: f64,
    before: f64,
    /// Every kernel time measured, in order.
    pub kernels: Vec<f64>,
}

impl Calibrator {
    /// Runs the kernel before the first unit. `elasticity` is how many
    /// times as much, in log terms, the units slow down as the kernel when
    /// the host slows: 1 when they track it exactly.
    pub fn new(elasticity: f64) -> Self {
        let before = kernel();
        Calibrator {
            elasticity,
            before,
            kernels: vec![before],
        }
    }

    /// Call right after a unit ends: runs the kernel and returns the factor
    /// that turns the unit's host seconds into reference seconds, the
    /// [`scale`] of the kernel times around the unit raised to the
    /// elasticity.
    pub fn factor(&mut self) -> f64 {
        let after = kernel();
        self.kernels.push(after);
        let f = scale(self.before, after).powf(self.elasticity);
        self.before = after;
        f
    }
}

/// [`NOMINAL_S`] ÷ the mean of the kernel times around a unit.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_repeats_exactly_and_grows_with_its_events() {
        assert_eq!(reference_loop(5_000), reference_loop(5_000));
        assert_ne!(reference_loop(5_000), reference_loop(5_001));
        let time = |events| {
            let t = Instant::now();
            black_box(reference_loop(black_box(events)));
            t.elapsed()
        };
        let (short, long) = (time(2_000), time(40_000));
        assert!(long > short * 4, "{short:?} vs {long:?}");
    }

    #[test]
    fn a_slower_host_scales_times_down_by_the_kernel_ratio() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        assert!((scale(1.5 * NOMINAL_S, 2.5 * NOMINAL_S) - 0.5).abs() < 1e-12);
        let mut c = Calibrator::new(1.0);
        let f = c.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(c.kernels.len(), 2);
        // Elasticity 0: times are left as host seconds.
        assert_eq!(Calibrator::new(0.0).factor(), 1.0);
    }
}
