//! Slices: the unit the benchmark takes medians over.
//!
//! A process's timed rounds are cut into slices of a fixed number of
//! rounds; throughput and latency percentiles are taken per slice, and a
//! run reports the median of its clean slices (see [`crate::host`]).
//! Whole-segment means moved by 15-30 % from run to run on this host.

use std::time::Instant;

use crate::host::{clean_median, Sample, StealClock};
use crate::stats::percentile;

/// How long a segment runs, in the body's own rounds (stream: windows;
/// ping-pong: round trips; SC: operations; durable: writes; simulator:
/// operations — each per process). Every round yields one latency
/// sample per process.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Untimed rounds at the start of the segment (connections warm,
    /// arenas sized, page cache touched).
    pub warm: u64,
    /// Rounds per slice.
    pub slice: u64,
    /// Timed slices.
    pub slices: u64,
}

impl Plan {
    /// A plan of about `rounds` timed rounds (never fewer than
    /// `min_slice`), in slices of at least `min_slice` rounds, after a
    /// 10 % warm-up.
    pub fn sized(rounds: u64, min_slice: u64) -> Plan {
        let slices = (rounds / min_slice).max(1);
        let slice = (rounds / slices).max(min_slice);
        Plan { warm: (slice * slices / 10).max(8), slice, slices }
    }

    /// Timed rounds.
    pub fn timed(&self) -> u64 {
        self.slice * self.slices
    }
}

/// One process's view of one slice.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Operations this process completed per second of the slice.
    pub ops_per_s: f64,
    /// Median latency sample, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency sample, ns, when the slice holds enough
    /// samples to have 10 beyond it.
    pub p99_ns: Option<u64>,
    /// Share of the slice's CPU time the hypervisor took away.
    pub stolen: f64,
}

/// However few slices are clean, a median is taken over this many.
const MIN_SLICES: usize = 4;

/// The clean median over `slices` of `f` (slices where `f` is `None`
/// are left out). NaN when nothing is left: a run that measured nothing
/// has no value, and prints no result.
pub fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let samples: Vec<Sample> = slices
        .iter()
        .filter_map(|s| f(s).map(|value| Sample { stolen: s.stolen, value }))
        .collect();
    if samples.is_empty() {
        return f64::NAN;
    }
    clean_median(&samples, MIN_SLICES)
}

/// Cuts one process's timed rounds into slices: at every slice boundary
/// a reading of the clock and of the steal counter, and the latency
/// samples taken in between.
pub struct Slicer {
    plan: Plan,
    ops_per_slice: u64,
    clock: StealClock,
    /// `(when, stolen jiffies, samples so far)` at the start of each
    /// slice, then at the end.
    marks: Vec<(Instant, u64, usize)>,
    lat_ns: Vec<u64>,
}

impl Slicer {
    /// A slicer for `plan`; a slice's rounds amount to `ops_per_slice`
    /// operations, and `clock` covers the CPUs the work runs on.
    pub fn new(plan: Plan, ops_per_slice: u64, clock: StealClock) -> Slicer {
        Slicer {
            plan,
            ops_per_slice,
            clock,
            marks: Vec::with_capacity(plan.slices as usize + 1),
            lat_ns: Vec::with_capacity(plan.timed() as usize),
        }
    }

    fn mark(&mut self) {
        self.marks.push((Instant::now(), self.clock.read(), self.lat_ns.len()));
    }

    /// Call as round `round` (0-based, warm-up included) begins.
    #[inline]
    pub fn begin_round(&mut self, round: u64) {
        if round >= self.plan.warm && (round - self.plan.warm).is_multiple_of(self.plan.slice) {
            self.mark();
        }
    }

    /// Records the latency sample of round `round`.
    #[inline]
    pub fn sample(&mut self, round: u64, ns: u64) {
        if round >= self.plan.warm {
            self.lat_ns.push(ns);
        }
    }

    /// Ends the last slice now.
    pub fn finish(mut self) -> Sliced {
        self.mark();
        let slices = self
            .marks
            .windows(2)
            .map(|w| {
                let elapsed = w[1].0 - w[0].0;
                let samples = &mut self.lat_ns[w[0].2..w[1].2];
                samples.sort_unstable();
                Slice {
                    ops_per_s: self.ops_per_slice as f64 / elapsed.as_secs_f64(),
                    p50_ns: samples[samples.len() / 2],
                    p99_ns: percentile(samples, 99.0),
                    stolen: self.clock.share(w[0].1, w[1].1, elapsed),
                }
            })
            .collect();
        let (first, last) = (self.marks[0], self.marks[self.marks.len() - 1]);
        Sliced { began: first.0, stolen_at_start: first.1, ended: last.0, slices }
    }
}

/// What a [`Slicer`] saw.
pub struct Sliced {
    /// When the first slice began.
    pub began: Instant,
    /// The steal counter at that moment.
    pub stolen_at_start: u64,
    /// When the last slice ended.
    pub ended: Instant,
    /// The slices.
    pub slices: Vec<Slice>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_keep_slices_big_enough_for_p99() {
        for rounds in [0, 7, 1_099, 1_100, 2_199, 2_200, 5_760, 84_000] {
            let plan = Plan::sized(rounds, 1_100);
            assert!(plan.slice >= 1_100, "{rounds}: slice {}", plan.slice);
            assert!(plan.timed() >= rounds.min(1_100), "{rounds}");
            assert!(plan.timed() <= rounds.max(1_100), "{rounds}: never more work than asked");
        }
        assert_eq!(Plan::sized(5_760, 1_100).slices, 5);
    }

    #[test]
    fn slicer_cuts_at_round_boundaries_and_skips_the_warm_up() {
        let plan = Plan { warm: 3, slice: 1_100, slices: 2 };
        let mut sl = Slicer::new(plan, 2_200, StealClock::machine());
        for round in 0..plan.warm + plan.timed() {
            sl.begin_round(round);
            sl.sample(round, 1_000 + round);
        }
        let slices = sl.finish().slices;
        assert_eq!(slices.len(), 2);
        // Samples 1003..=2102, then 2103..=3202; nearest-rank percentiles.
        assert_eq!(slices[0].p50_ns, 1_003 + 550);
        assert_eq!(slices[1].p99_ns, Some(2_103 + 1_088));
        assert!(slices.iter().all(|s| s.ops_per_s > 0.0));
        // Too few samples for a p99: none is invented.
        let mut short =
            Slicer::new(Plan { warm: 0, slice: 100, slices: 1 }, 100, StealClock::machine());
        (0..100).for_each(|r| {
            short.begin_round(r);
            short.sample(r, r);
        });
        assert_eq!(short.finish().slices[0].p99_ns, None);
    }
}
