//! Execution metrics: message counts, bytes, events, stalls.
//!
//! The qualitative claims of the paper (Section 7) are about communication
//! and stall costs, so the simulator accounts for them exactly: every
//! message carries a static *kind* label and a size, and every blocked
//! process resume records how long the process stalled.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

/// Per-message-kind counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of messages sent.
    pub count: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// Per-process counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Syscalls issued by the process.
    pub syscalls: u64,
    /// Syscalls that blocked at least once.
    pub blocked: u64,
    /// Total virtual time spent blocked.
    pub stall_time: SimTime,
}

/// Counters of injected network faults (see
/// [`FaultPlan`](crate::FaultPlan)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages suppressed by the random drop probability.
    pub dropped: u64,
    /// Extra deliveries injected by the duplication probability.
    pub duplicated: u64,
    /// Messages suppressed because a partition severed the link.
    pub partition_dropped: u64,
    /// Messages suppressed by a node crash (sent or wiped while down).
    pub crash_dropped: u64,
}

impl FaultStats {
    /// Total number of faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.partition_dropped + self.crash_dropped
    }

    /// Total number of message copies suppressed (each suppressed copy is
    /// counted in exactly one of the three drop buckets; duplicates are
    /// extra copies, not suppressions, so they are excluded here).
    pub fn dropped_total(&self) -> u64 {
        self.dropped + self.partition_dropped + self.crash_dropped
    }
}

/// Counters of the durability subsystem: write-ahead-log records and
/// compacted snapshots (see `mc_proto::durability`).
///
/// Appends obey their own conservation law, checked at the end of every
/// run: every record staged by an append is either made durable by an
/// fsync, lost to a crash before its fsync, or still staged when the run
/// ends. All four terms are zero when durability is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (staged) to a replica's log.
    pub appends: u64,
    /// Staged records made durable by an fsync.
    pub synced: u64,
    /// Fsync calls that made at least one record durable. Per-write
    /// durability pays one per record; group commit amortizes one call
    /// over every record staged since the last externalization, so
    /// `fsyncs < synced` is the signature of effective batching.
    pub fsyncs: u64,
    /// Syncs that had to flush a log file's size as well as its data:
    /// the one a real replica directory makes when it is opened and
    /// its log created, cut or extended, and the first after an append
    /// extended the log. Every other sync of a preallocated log is
    /// data-only. Always zero in the simulator, whose disk has no size.
    pub full_syncs: u64,
    /// Staged records lost to a crash before their fsync.
    pub lost: u64,
    /// Durable records replayed during recoveries.
    pub replayed: u64,
    /// Compacted snapshots installed.
    pub snapshots: u64,
    /// Crash-recoveries completed.
    pub recoveries: u64,
}

/// Number of log₂ buckets in a [`Histogram`] (covers the full `u64`
/// nanosecond range).
const HIST_BUCKETS: usize = 65;

/// A deterministic log₂-bucketed histogram of [`SimTime`] durations.
///
/// Bucket `i` holds durations `d` with `⌊log₂ d⌋ = i - 1` (bucket 0 holds
/// exactly zero), so the bucket layout is fixed and seed-independent:
/// identical runs produce byte-identical histograms. Quantiles are
/// resolved to the upper bound of the containing bucket, clamped to the
/// recorded maximum — exact enough for the order-of-magnitude stall/RTO
/// distributions the paper's cost claims are about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(nanos: u64) -> usize {
        (u64::BITS - nanos.leading_zeros()) as usize
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimTime) {
        let n = d.as_nanos();
        self.buckets[Self::bucket_of(n)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(n);
        self.min = self.min.min(n);
        self.max = self.max.max(n);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> SimTime {
        SimTime::from_nanos(self.sum)
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> SimTime {
        SimTime::from_nanos(if self.count == 0 { 0 } else { self.min })
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimTime {
        SimTime::from_nanos(self.max)
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(self.sum / self.count)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), resolved to the upper bound of
    /// the containing log₂ bucket and clamped to the recorded maximum.
    pub fn quantile(&self, q: f64) -> SimTime {
        if self.count == 0 {
            return SimTime::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i is 2^i - 1 (bucket 0 is exactly 0).
                let hi = if i == 0 { 0 } else { (1u64 << i.min(63)).saturating_sub(1) };
                return SimTime::from_nanos(hi.min(self.max).max(self.min));
            }
        }
        self.max()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

/// Aggregate metrics of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    per_kind: BTreeMap<&'static str, KindStats>,
    per_proc: Vec<ProcStats>,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Number of simulator events processed (deliveries + syscalls +
    /// timer expirations).
    pub events: u64,
    /// Number of syscalls that blocked at least once.
    pub blocked_syscalls: u64,
    /// Total virtual time processes spent blocked.
    pub stall_time: SimTime,
    /// Virtual time at the end of the run.
    pub finish_time: SimTime,
    /// Injected network faults.
    pub faults: FaultStats,
    /// Message copies delivered to a protocol (duplicate copies count).
    pub delivered: u64,
    /// Protocol timers armed.
    pub timers_set: u64,
    /// Protocol timers that expired.
    pub timers_fired: u64,
    /// Protocol timers wiped by a crash before they could fire.
    pub timers_cancelled: u64,
    /// Protocol timers still armed when the run ended.
    pub timers_pending: u64,
    /// Durability counters (WAL records, snapshots, recoveries).
    pub wal: DurabilityStats,
    /// WAL records still staged (appended, never fsynced) when the run
    /// ended, reported by [`Protocol::durable_staged`](crate::Protocol::durable_staged).
    pub wal_staged: u64,
    /// Distribution of per-stall blocked durations.
    pub stall_hist: Histogram,
    /// Distribution of message delivery latencies (send to delivery).
    pub delivery_hist: Histogram,
    /// Distribution of retransmission timeouts actually waited by the
    /// session layer (recorded at each retransmission).
    pub rto_hist: Histogram,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one sent message.
    pub fn record_send(&mut self, kind: &'static str, bytes: u64) {
        let e = self.per_kind.entry(kind).or_default();
        e.count += 1;
        e.bytes += bytes;
        self.messages += 1;
        self.bytes += bytes;
    }

    /// Records a resumed process that stalled for `stall`.
    pub fn record_stall(&mut self, stall: SimTime) {
        self.blocked_syscalls += 1;
        self.stall_time += stall;
        self.stall_hist.record(stall);
    }

    /// Records one message copy handed to the protocol after spending
    /// `latency` in flight.
    pub fn record_delivery(&mut self, latency: SimTime) {
        self.delivered += 1;
        self.delivery_hist.record(latency);
    }

    /// Records the backoff interval a session-layer retransmission waited.
    pub fn record_rto(&mut self, rto: SimTime) {
        self.rto_hist.record(rto);
    }

    /// Checks the message and timer conservation laws:
    ///
    /// * every copy put in flight (`messages` sends plus `duplicated`
    ///   extra copies) is either delivered, suppressed by exactly one
    ///   fault bucket, or still queued;
    /// * every timer armed either fired, was cancelled by a crash, or is
    ///   still pending.
    ///
    /// `queued` is the number of deliveries still in flight when the run
    /// ended (zero on normal completion — in-flight deliveries are always
    /// runnable events).
    pub fn check_conservation(&self, queued: u64) -> Result<(), String> {
        let copies = self.messages + self.faults.duplicated;
        let accounted = self.delivered + self.faults.dropped_total() + queued;
        if copies != accounted {
            return Err(format!(
                "message conservation violated: {} sent + {} duplicated != \
                 {} delivered + {} dropped + {} partition_dropped + \
                 {} crash_dropped + {queued} queued",
                self.messages,
                self.faults.duplicated,
                self.delivered,
                self.faults.dropped,
                self.faults.partition_dropped,
                self.faults.crash_dropped,
            ));
        }
        let timer_accounted = self.timers_fired + self.timers_cancelled + self.timers_pending;
        if self.timers_set != timer_accounted {
            return Err(format!(
                "timer conservation violated: {} set != {} fired + \
                 {} cancelled + {} pending",
                self.timers_set, self.timers_fired, self.timers_cancelled, self.timers_pending,
            ));
        }
        let wal_accounted = self.wal.synced + self.wal.lost + self.wal_staged;
        if self.wal.appends != wal_accounted {
            return Err(format!(
                "WAL conservation violated: {} appended != {} synced + \
                 {} lost + {} staged",
                self.wal.appends, self.wal.synced, self.wal.lost, self.wal_staged,
            ));
        }
        Ok(())
    }

    fn proc_entry(&mut self, proc: usize) -> &mut ProcStats {
        if proc >= self.per_proc.len() {
            self.per_proc.resize(proc + 1, ProcStats::default());
        }
        &mut self.per_proc[proc]
    }

    /// Records one syscall issued by `proc`.
    pub fn record_proc_syscall(&mut self, proc: usize) {
        self.proc_entry(proc).syscalls += 1;
    }

    /// Records a stall of `proc`.
    pub fn record_proc_stall(&mut self, proc: usize, stall: SimTime) {
        let e = self.proc_entry(proc);
        e.blocked += 1;
        e.stall_time += stall;
    }

    /// Per-process counters (indexed by process token).
    pub fn proc(&self, proc: usize) -> ProcStats {
        self.per_proc.get(proc).copied().unwrap_or_default()
    }

    /// Iterates over all per-process counters.
    pub fn procs(&self) -> impl Iterator<Item = (usize, ProcStats)> + '_ {
        self.per_proc.iter().enumerate().map(|(i, &s)| (i, s))
    }

    /// The counters for one message kind (zero if never sent).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }

    /// Iterates over `(kind, stats)` in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        self.per_kind.iter().map(|(&k, &v)| (k, v))
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "time={} events={} messages={} delivered={} bytes={} blocked={} stall={}",
            self.finish_time,
            self.events,
            self.messages,
            self.delivered,
            self.bytes,
            self.blocked_syscalls,
            self.stall_time
        )?;
        if self.faults.total() > 0 {
            writeln!(
                f,
                "  faults: dropped={} duplicated={} partitioned={} crashed={}",
                self.faults.dropped,
                self.faults.duplicated,
                self.faults.partition_dropped,
                self.faults.crash_dropped
            )?;
        }
        if self.timers_set > 0 {
            writeln!(
                f,
                "  timers: set={} fired={} cancelled={} pending={}",
                self.timers_set, self.timers_fired, self.timers_cancelled, self.timers_pending
            )?;
        }
        if self.wal.appends > 0 || self.wal.recoveries > 0 {
            writeln!(
                f,
                "  wal: appended={} synced={} fsyncs={} lost={} replayed={} snapshots={} \
                 recoveries={}",
                self.wal.appends,
                self.wal.synced,
                self.wal.fsyncs,
                self.wal.lost,
                self.wal.replayed,
                self.wal.snapshots,
                self.wal.recoveries
            )?;
        }
        if !self.stall_hist.is_empty() {
            writeln!(f, "  stall: {}", self.stall_hist)?;
        }
        if !self.delivery_hist.is_empty() {
            writeln!(f, "  delivery latency: {}", self.delivery_hist)?;
        }
        if !self.rto_hist.is_empty() {
            writeln!(f, "  rto: {}", self.rto_hist)?;
        }
        for (kind, s) in &self.per_kind {
            writeln!(f, "  {kind}: {} msgs, {} bytes", s.count, s.bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting() {
        let mut m = Metrics::new();
        m.record_send("update", 16);
        m.record_send("update", 16);
        m.record_send("grant", 4);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 36);
        assert_eq!(m.kind("update"), KindStats { count: 2, bytes: 32 });
        assert_eq!(m.kind("grant").count, 1);
        assert_eq!(m.kind("nonexistent"), KindStats::default());
        let kinds: Vec<_> = m.kinds().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["grant", "update"]);
    }

    #[test]
    fn stall_accounting() {
        let mut m = Metrics::new();
        m.record_stall(SimTime::from_micros(5));
        m.record_stall(SimTime::from_micros(3));
        assert_eq!(m.blocked_syscalls, 2);
        assert_eq!(m.stall_time, SimTime::from_micros(8));
    }

    #[test]
    fn per_proc_accounting() {
        let mut m = Metrics::new();
        m.record_proc_syscall(1);
        m.record_proc_syscall(1);
        m.record_proc_stall(1, SimTime::from_micros(2));
        assert_eq!(m.proc(1).syscalls, 2);
        assert_eq!(m.proc(1).blocked, 1);
        assert_eq!(m.proc(1).stall_time, SimTime::from_micros(2));
        assert_eq!(m.proc(0), ProcStats::default());
        assert_eq!(m.proc(9), ProcStats::default(), "unknown proc is zeroed");
        assert_eq!(m.procs().count(), 2);
    }

    #[test]
    fn display_contains_counts() {
        let mut m = Metrics::new();
        m.record_send("update", 8);
        m.finish_time = SimTime::from_micros(1);
        let s = m.to_string();
        assert!(s.contains("messages=1"));
        assert!(s.contains("update: 1 msgs"));
    }

    #[test]
    fn histogram_buckets_are_deterministic() {
        let mut h = Histogram::new();
        for ns in [0u64, 1, 2, 3, 1_000, 1_000_000, u64::MAX] {
            h.record(SimTime::from_nanos(ns));
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), SimTime::ZERO);
        assert_eq!(h.max(), SimTime::from_nanos(u64::MAX));
        let h2 = {
            let mut h2 = Histogram::new();
            for ns in [0u64, 1, 2, 3, 1_000, 1_000_000, u64::MAX] {
                h2.record(SimTime::from_nanos(ns));
            }
            h2
        };
        assert_eq!(h, h2, "identical inputs give identical histograms");
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimTime::from_micros(us));
        }
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
        // p50 of 1..=100µs lies in the 64µs..128µs bucket, clamped to max.
        let p50 = h.quantile(0.5).as_nanos();
        assert!((50_000..=131_072).contains(&p50), "p50 = {p50}ns");
        assert_eq!(h.mean(), SimTime::from_nanos(50_500));
        assert_eq!(Histogram::new().quantile(0.5), SimTime::ZERO);
    }

    #[test]
    fn delivery_and_rto_recording() {
        let mut m = Metrics::new();
        m.record_delivery(SimTime::from_micros(7));
        m.record_delivery(SimTime::from_micros(9));
        m.record_rto(SimTime::from_micros(50));
        assert_eq!(m.delivered, 2);
        assert_eq!(m.delivery_hist.count(), 2);
        assert_eq!(m.rto_hist.count(), 1);
        assert_eq!(m.rto_hist.sum(), SimTime::from_micros(50));
    }

    #[test]
    fn conservation_checks() {
        let mut m = Metrics::new();
        m.record_send("update", 8);
        m.record_send("update", 8);
        m.faults.duplicated = 1;
        m.record_delivery(SimTime::ZERO);
        m.record_delivery(SimTime::ZERO);
        m.faults.dropped = 1;
        assert!(m.check_conservation(0).is_ok());
        m.faults.dropped = 0;
        let err = m.check_conservation(0).unwrap_err();
        assert!(err.contains("message conservation"), "{err}");
        m.faults.dropped = 1;
        m.timers_set = 3;
        m.timers_fired = 1;
        let err = m.check_conservation(0).unwrap_err();
        assert!(err.contains("timer conservation"), "{err}");
        m.timers_cancelled = 1;
        m.timers_pending = 1;
        assert!(m.check_conservation(0).is_ok());
    }

    #[test]
    fn wal_conservation_law() {
        let mut m = Metrics::new();
        assert!(m.check_conservation(0).is_ok(), "all-zero WAL terms balance");
        m.wal.appends = 5;
        m.wal.synced = 3;
        let err = m.check_conservation(0).unwrap_err();
        assert!(err.contains("WAL conservation"), "{err}");
        m.wal.lost = 1;
        m.wal_staged = 1;
        assert!(m.check_conservation(0).is_ok());
        let s = m.to_string();
        assert!(s.contains("wal: appended=5"), "{s}");
    }
}
