//! What the host does to a run, read from `/proc`: stolen time — CPU
//! time the hypervisor gave to someone else while this guest wanted it
//! (`steal` in `/proc/stat`) — and the peak resident set.
//!
//! On the sandbox this benchmark was built on, steal arrives in bursts
//! of seconds to minutes and halves throughput while it lasts; a median
//! over everything moved 30 % from run to run. So every timed interval
//! also reads the steal counter, and a run reports the median of its
//! *clean* intervals — it measures while the machine is its own.

use std::time::Duration;

/// The steal counter ticks in hundredths of a second.
const JIFFIES_PER_SECOND: f64 = 100.0;
/// An interval is clean when at most this share of its CPU time was
/// stolen (beyond the one jiffy [`StealClock::share`] forgives): for a
/// 0.3 s slice on 2 CPUs, nothing.
const CLEAN_SHARE: f64 = 0.005;

/// Reads the steal counter of the whole machine or of one CPU.
#[derive(Clone, Copy, Debug)]
pub struct StealClock {
    /// `None`: all CPUs together.
    cpu: Option<usize>,
    /// CPUs the counter covers.
    ncpu: usize,
}

impl StealClock {
    /// The counter summed over every CPU, for work that runs on all of them.
    pub fn machine() -> StealClock {
        let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
        StealClock { cpu: None, ncpu }
    }

    /// The counter of CPU `cpu` alone, for work pinned to it.
    pub fn one_cpu(cpu: usize) -> StealClock {
        StealClock { cpu: Some(cpu), ncpu: 1 }
    }

    /// Stolen jiffies so far (0 where `/proc/stat` is missing).
    pub fn read(&self) -> u64 {
        let label = self.cpu.map_or("cpu".to_string(), |n| format!("cpu{n}"));
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // cpuN user nice system idle iowait irq softirq steal ...
        stat.lines()
            .find(|l| l.split_whitespace().next() == Some(&label))
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Runs `f` and returns its result, how long it took, and the share
    /// of that time that was stolen.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Duration, f64) {
        let (started, before) = (std::time::Instant::now(), self.read());
        let r = f();
        let elapsed = started.elapsed();
        (r, elapsed, self.share(before, self.read(), elapsed))
    }

    /// The share of an interval's CPU time that was stolen, given the
    /// counter at its two ends. One jiffy is forgiven: the counter's
    /// grain is coarser than a short interval.
    pub fn share(&self, before: u64, after: u64, elapsed: Duration) -> f64 {
        let stolen = after.saturating_sub(before).saturating_sub(1) as f64;
        let capacity = elapsed.as_secs_f64() * JIFFIES_PER_SECOND * self.ncpu as f64;
        if capacity > 0.0 {
            stolen / capacity
        } else {
            0.0
        }
    }
}

/// One measured interval: a value and the share of its time that was stolen.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Stolen share of the interval, from [`StealClock::share`].
    pub stolen: f64,
    /// What was measured over it.
    pub value: f64,
}

/// The median value of the clean samples — or of the `at_least`
/// cleanest (or all there are), when fewer are clean.
///
/// # Panics
///
/// Panics on no samples.
pub fn clean_median(samples: &[Sample], at_least: usize) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut by_steal = samples.to_vec();
    by_steal.sort_by(|a, b| a.stolen.partial_cmp(&b.stolen).expect("shares are finite"));
    let clean = by_steal.iter().take_while(|s| s.stolen <= CLEAN_SHARE).count();
    let keep = clean.max(at_least.min(by_steal.len()));
    let values: Vec<f64> = by_steal[..keep].iter().map(|s| s.value).collect();
    crate::stats::median(&values)
}

/// Resets this process's peak resident set to its current one, so that
/// [`peak_rss_mb`] reports the peak of what follows. Best effort: where
/// `/proc/self/clear_refs` cannot be written, peaks accumulate.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_is_taken_over_clean_samples_only() {
        let s = |stolen, value| Sample { stolen, value };
        // Ten clean samples around 100, ten halved by steal.
        let mut samples: Vec<Sample> = (0..10).map(|i| s(0.0, 95.0 + i as f64)).collect();
        samples.extend((0..10).map(|i| s(0.3, 50.0 + i as f64)));
        assert_eq!(clean_median(&samples, 8), 99.5);
        // Three clean of twenty: the eight cleanest decide.
        let mut samples: Vec<Sample> = (0..3).map(|i| s(0.0, 100.0 + i as f64)).collect();
        samples.extend((0..17).map(|i| s(0.05 + f64::from(i) / 100.0, 80.0 - f64::from(i))));
        assert_eq!(clean_median(&samples, 8), (79.0 + 80.0) / 2.0);
        // Fewer than eight samples: all of them.
        assert_eq!(clean_median(&[s(0.5, 1.0), s(0.0, 3.0), s(0.9, 2.0)], 8), 2.0);
        assert_eq!(clean_median(&[s(0.5, 1.0), s(0.0, 3.0), s(0.9, 2.0)], 1), 3.0);
    }

    #[test]
    fn one_jiffy_is_forgiven() {
        let clock = StealClock::one_cpu(0);
        let second = Duration::from_secs(1);
        assert_eq!(clock.share(10, 11, second), 0.0);
        assert_eq!(clock.share(10, 21, second), 0.1);
        assert_eq!(clock.share(10, 10, Duration::ZERO), 0.0);
        assert!(
            StealClock::machine().read() >= StealClock::one_cpu(0).read()
                || cfg!(not(target_os = "linux"))
        );
    }
}
