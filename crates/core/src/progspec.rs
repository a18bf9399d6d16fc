//! Serializable program specifications.
//!
//! Exploration and counterexample minimization need programs as *data*:
//! a [`ProgSpec`] describes the per-process operation lists of a closed
//! program, can be shrunk structurally (dropping operations, lock pairs,
//! barrier rounds), rebuilt into a runnable [`System`], and round-tripped
//! through a line-oriented text format — which is how `mc-check --replay`
//! reconstructs a failing run from a repro artifact.

use std::fmt::Write as _;

use mc_proto::{Driver, LockPropagation, MemCtx, Mode};

use crate::explore::racing_config;
use crate::system::System;
use crate::{BarrierId, Loc, LockId, LockMode, ReadLabel};

/// One operation of a [`ProgSpec`] process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpecOp {
    /// `ctx.write(loc, value)`.
    Write {
        /// Target location.
        loc: Loc,
        /// Written value.
        value: i64,
    },
    /// `ctx.add(loc, delta)` (commutative counter increment).
    Add {
        /// Target location.
        loc: Loc,
        /// The delta.
        delta: i64,
    },
    /// `ctx.read(loc, label)`, result discarded (the recorded history
    /// keeps the observed value for the checkers).
    Read {
        /// Read location.
        loc: Loc,
        /// Consistency label of the read.
        label: ReadLabel,
    },
    /// `ctx.lock(lock, mode)`.
    Lock {
        /// The lock object.
        lock: LockId,
        /// Read or write mode.
        mode: LockMode,
    },
    /// `ctx.unlock(lock, mode)`.
    Unlock {
        /// The lock object.
        lock: LockId,
        /// Read or write mode.
        mode: LockMode,
    },
    /// `ctx.barrier_on(barrier)`.
    Barrier {
        /// The barrier object.
        barrier: BarrierId,
    },
    /// `ctx.await_eq(loc, value)`.
    Await {
        /// Awaited location.
        loc: Loc,
        /// Value to wait for.
        value: i64,
    },
}

/// A closed, serializable program: memory mode, lock propagation
/// variant, and one operation list per process.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProgSpec {
    /// The memory mode the program runs on.
    pub mode: Mode,
    /// The lock propagation variant.
    pub lock_propagation: LockPropagation,
    /// Per-replica durability: `Some(n)` enables the WAL with a snapshot
    /// every `n` records (and the session layer, which recovery's epoch
    /// fencing rides on).
    pub durability: Option<u32>,
    /// Per-process lattice assignment: `Some(ms)` judges (and runs)
    /// process `i` under `ms[i]` instead of the single [`Mode`]. Length
    /// must equal the process count once processes are appended.
    pub models: Option<Vec<mc_model::ProcModel>>,
    /// Sharded partial replication: `Some(n)` partitions the address
    /// space into `n` shards (`loc % n`) and multicasts updates only to
    /// a shard's subscribers. Interest sets default to each process's
    /// footprint (the shards of the locations its operations touch) and
    /// can be overridden per process via [`ProgSpec::interest`].
    pub shards: Option<usize>,
    /// Explicit per-process interest overrides, sorted by process id.
    /// A process with an override subscribes statically to exactly
    /// those shards; the subscribe-on-first-touch fallback is enabled
    /// so accesses outside it block-and-subscribe instead of faulting.
    pub interest: Vec<(usize, Vec<usize>)>,
    /// Per-process operation lists (process ids follow index order).
    pub procs: Vec<Vec<SpecOp>>,
}

impl ProgSpec {
    /// Creates an empty spec on `mode` with the default (lazy) lock
    /// propagation.
    pub fn new(mode: Mode) -> Self {
        ProgSpec {
            mode,
            lock_propagation: LockPropagation::Lazy,
            durability: None,
            models: None,
            shards: None,
            interest: Vec::new(),
            procs: Vec::new(),
        }
    }

    /// Enables durable replicas: WAL plus a snapshot every
    /// `snapshot_every` records.
    pub fn durable(mut self, snapshot_every: u32) -> Self {
        self.durability = Some(snapshot_every);
        self
    }

    /// Assigns one lattice point per process. The assignment overrides
    /// the `mode` substrate (which is re-derived from the models) and
    /// routes verification through the declarative validator.
    pub fn models(mut self, models: Vec<mc_model::ProcModel>) -> Self {
        self.models = Some(models);
        self
    }

    /// Partitions the address space into `nshards` shards with
    /// footprint-derived interest sets (see [`ProgSpec::shards`]).
    pub fn sharded(mut self, nshards: usize) -> Self {
        self.shards = Some(nshards);
        self
    }

    /// Overrides process `proc`'s interest set (and enables the
    /// subscribe-on-first-touch fallback for accesses outside it).
    ///
    /// # Panics
    ///
    /// Panics on a second override for the same process.
    pub fn interest(mut self, proc: usize, shards: Vec<usize>) -> Self {
        assert!(
            !self.interest.iter().any(|(p, _)| *p == proc),
            "duplicate interest override for process {proc}"
        );
        self.interest.push((proc, shards));
        self.interest.sort();
        self
    }

    /// Appends a process with the given operations.
    pub fn proc(mut self, ops: Vec<SpecOp>) -> Self {
        self.procs.push(ops);
        self
    }

    /// Total operation count across processes.
    pub fn len(&self) -> usize {
        self.procs.iter().map(Vec::len).sum()
    }

    /// `true` if no process has any operation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the runnable [`System`] for this spec: recording on, racing
    /// (zero-latency, zero-cost) simulator configuration so exploration
    /// reaches every interleaving through tie-breaking.
    pub fn build_system(&self) -> System {
        let mut sys = System::new(self.procs.len(), self.mode)
            .lock_propagation(self.lock_propagation)
            .record(true)
            .sim_config(racing_config());
        if let Some(every) = self.durability {
            sys = sys.reliable(true).durability(Some(mc_proto::DurabilityPolicy::new(every)));
        }
        if let Some(models) = &self.models {
            sys = sys.models(mc_model::ModelAssignment::per_proc(models.clone()));
        }
        if let Some(nshards) = self.shards {
            // Explicit overrides may under-subscribe on purpose (to
            // exercise first-touch subscription), so their presence
            // turns the dynamic fallback on; pure footprint interest
            // covers every access statically.
            let dynamic = !self.interest.is_empty();
            let interest: Vec<Vec<usize>> = (0..self.procs.len())
                .map(|p| match self.interest.iter().find(|(q, _)| *q == p) {
                    Some((_, set)) => set.clone(),
                    None => footprint(&self.procs[p], nshards),
                })
                .collect();
            sys = sys.sharding(Some(
                mc_proto::ShardConfig::new(nshards, interest).with_dynamic(dynamic),
            ));
        }
        for ops in &self.procs {
            let ops = ops.clone();
            sys.spawn(move |ctx| run_ops(ctx, &ops));
        }
        sys
    }

    /// Renders the spec in the line-oriented text format accepted by
    /// [`ProgSpec::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "mode {}", self.mode);
        let _ = writeln!(out, "locks {}", prop_name(self.lock_propagation));
        if let Some(every) = self.durability {
            let _ = writeln!(out, "durability {every}");
        }
        if let Some(models) = &self.models {
            let names: Vec<&str> = models.iter().map(mc_model::ProcModel::name).collect();
            let _ = writeln!(out, "models {}", names.join(" "));
        }
        if let Some(n) = self.shards {
            let _ = writeln!(out, "shards {n}");
        }
        for (p, set) in &self.interest {
            let rendered: Vec<String> = set.iter().map(usize::to_string).collect();
            let _ = writeln!(out, "interest {p} {}", rendered.join(" "));
        }
        for (p, ops) in self.procs.iter().enumerate() {
            let _ = writeln!(out, "proc {p}");
            for op in ops {
                let _ = writeln!(out, "  {}", op_text(op));
            }
        }
        out
    }

    /// Parses the text format produced by [`ProgSpec::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<ProgSpec, String> {
        let mut mode = None;
        let mut prop = LockPropagation::Lazy;
        let mut durability = None;
        let mut models = None;
        let mut shards = None;
        let mut interest: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut procs: Vec<Vec<SpecOp>> = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let err = |msg: &str| format!("line {}: {msg}: {line:?}", ln + 1);
            match words[0] {
                "mode" => {
                    mode = Some(
                        parse_mode(words.get(1).copied().unwrap_or(""))
                            .ok_or_else(|| err("unknown mode"))?,
                    );
                }
                "locks" => {
                    prop = parse_prop(words.get(1).copied().unwrap_or(""))
                        .ok_or_else(|| err("unknown lock propagation"))?;
                }
                "durability" => {
                    durability = Some(
                        words
                            .get(1)
                            .and_then(|w| w.parse().ok())
                            .ok_or_else(|| err("bad snapshot cadence"))?,
                    );
                }
                "models" => {
                    // A second `models` line used to silently overwrite
                    // the first — last-wins hid typos in hand-edited
                    // artifacts, so duplicates are now a parse error.
                    if models.is_some() {
                        return Err(err("duplicate `models` line"));
                    }
                    let parsed: Option<Vec<mc_model::ProcModel>> =
                        words[1..].iter().map(|w| mc_model::ProcModel::named(w)).collect();
                    let parsed = parsed.ok_or_else(|| err("unknown model name"))?;
                    if parsed.is_empty() {
                        return Err(err("empty model list"));
                    }
                    models = Some(parsed);
                }
                "shards" => {
                    if shards.is_some() {
                        return Err(err("duplicate `shards` line"));
                    }
                    let n: usize = words
                        .get(1)
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad shard count"))?;
                    if n == 0 || words.len() != 2 {
                        return Err(err("bad shard count"));
                    }
                    shards = Some(n);
                }
                "interest" => {
                    let p: usize = words
                        .get(1)
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("bad interest process"))?;
                    if interest.iter().any(|(q, _)| *q == p) {
                        return Err(err("duplicate `interest` line for process"));
                    }
                    let set: Option<Vec<usize>> =
                        words[2..].iter().map(|w| w.parse().ok()).collect();
                    let set = set.ok_or_else(|| err("bad shard id in interest set"))?;
                    interest.push((p, set));
                }
                "proc" => {
                    let idx: usize =
                        words.get(1).and_then(|w| w.parse().ok()).ok_or_else(|| err("bad proc"))?;
                    if idx != procs.len() {
                        return Err(err("processes must appear in order"));
                    }
                    procs.push(Vec::new());
                }
                _ => {
                    let op = parse_op(&words).ok_or_else(|| err("unknown operation"))?;
                    procs.last_mut().ok_or_else(|| err("operation before any proc"))?.push(op);
                }
            }
        }
        if let Some(ms) = &models {
            if ms.len() != procs.len() {
                return Err(format!(
                    "`models` names {} processes but the program has {}",
                    ms.len(),
                    procs.len()
                ));
            }
        }
        interest.sort();
        match shards {
            Some(n) => {
                for (p, set) in &interest {
                    if *p >= procs.len() {
                        return Err(format!(
                            "`interest` names process {p} but the program has {}",
                            procs.len()
                        ));
                    }
                    if let Some(s) = set.iter().find(|s| **s >= n) {
                        return Err(format!("`interest {p}` names shard {s} of only {n}"));
                    }
                }
                let sync = procs.iter().flatten().any(|op| {
                    matches!(
                        op,
                        SpecOp::Lock { .. } | SpecOp::Unlock { .. } | SpecOp::Barrier { .. }
                    )
                });
                if sync {
                    return Err("locks and barriers are not supported with `shards`".to_string());
                }
            }
            None => {
                if !interest.is_empty() {
                    return Err("`interest` requires a `shards` line".to_string());
                }
            }
        }
        Ok(ProgSpec {
            mode: mode.ok_or("missing `mode` line")?,
            lock_propagation: prop,
            durability,
            models,
            shards,
            interest,
            procs,
        })
    }
}

/// The shards a process's operations touch — its default interest set.
fn footprint(ops: &[SpecOp], nshards: usize) -> Vec<usize> {
    let mut shards: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            SpecOp::Write { loc, .. }
            | SpecOp::Add { loc, .. }
            | SpecOp::Read { loc, .. }
            | SpecOp::Await { loc, .. } => Some(loc.index() % nshards),
            SpecOp::Lock { .. } | SpecOp::Unlock { .. } | SpecOp::Barrier { .. } => None,
        })
        .collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

/// Runs one process's operations against any executor's context — the
/// one `SpecOp` interpreter.
pub fn run_ops<D: Driver>(ctx: &mut MemCtx<D>, ops: &[SpecOp]) {
    for op in ops {
        match *op {
            SpecOp::Write { loc, value } => {
                ctx.write(loc, value);
            }
            SpecOp::Add { loc, delta } => {
                ctx.add(loc, delta);
            }
            SpecOp::Read { loc, label } => {
                let _ = ctx.read(loc, label);
            }
            SpecOp::Lock { lock, mode } => ctx.lock(lock, mode),
            SpecOp::Unlock { lock, mode } => ctx.unlock(lock, mode),
            SpecOp::Barrier { barrier } => ctx.barrier_on(barrier),
            SpecOp::Await { loc, value } => {
                ctx.await_eq(loc, value);
            }
        }
    }
}

fn op_text(op: &SpecOp) -> String {
    match *op {
        SpecOp::Write { loc, value } => format!("w {} {}", loc.0, value),
        SpecOp::Add { loc, delta } => format!("add {} {}", loc.0, delta),
        SpecOp::Read { loc, label } => {
            format!("r {} {}", loc.0, if label == ReadLabel::Pram { "pram" } else { "causal" })
        }
        SpecOp::Lock { lock, mode } => {
            format!("l {} {}", lock.0, if mode == LockMode::Write { "w" } else { "r" })
        }
        SpecOp::Unlock { lock, mode } => {
            format!("u {} {}", lock.0, if mode == LockMode::Write { "w" } else { "r" })
        }
        SpecOp::Barrier { barrier } => format!("b {}", barrier.0),
        SpecOp::Await { loc, value } => format!("await {} {}", loc.0, value),
    }
}

fn parse_op(words: &[&str]) -> Option<SpecOp> {
    let n1 = |i: usize| words.get(i).and_then(|w| w.parse::<u32>().ok());
    let i1 = |i: usize| words.get(i).and_then(|w| w.parse::<i64>().ok());
    Some(match words[0] {
        "w" => SpecOp::Write { loc: Loc(n1(1)?), value: i1(2)? },
        "add" => SpecOp::Add { loc: Loc(n1(1)?), delta: i1(2)? },
        "r" => SpecOp::Read {
            loc: Loc(n1(1)?),
            label: match *words.get(2)? {
                "pram" => ReadLabel::Pram,
                "causal" => ReadLabel::Causal,
                _ => return None,
            },
        },
        "l" | "u" => {
            let mode = match *words.get(2)? {
                "w" => LockMode::Write,
                "r" => LockMode::Read,
                _ => return None,
            };
            if words[0] == "l" {
                SpecOp::Lock { lock: LockId(n1(1)?), mode }
            } else {
                SpecOp::Unlock { lock: LockId(n1(1)?), mode }
            }
        }
        "b" => SpecOp::Barrier { barrier: BarrierId(n1(1)?) },
        "await" => SpecOp::Await { loc: Loc(n1(1)?), value: i1(2)? },
        _ => return None,
    })
}

fn parse_mode(s: &str) -> Option<Mode> {
    Mode::ALL.into_iter().find(|m| m.to_string() == s)
}

fn prop_name(p: LockPropagation) -> &'static str {
    match p {
        LockPropagation::Eager => "eager",
        LockPropagation::Lazy => "lazy",
        LockPropagation::DemandDriven => "demand",
    }
}

fn parse_prop(s: &str) -> Option<LockPropagation> {
    LockPropagation::ALL.into_iter().find(|&p| prop_name(p) == s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;

    fn sample() -> ProgSpec {
        ProgSpec::new(Mode::Mixed)
            .proc(vec![
                SpecOp::Write { loc: Loc(0), value: 1 },
                SpecOp::Lock { lock: LockId(0), mode: LockMode::Write },
                SpecOp::Add { loc: Loc(1), delta: -1 },
                SpecOp::Unlock { lock: LockId(0), mode: LockMode::Write },
                SpecOp::Barrier { barrier: BarrierId(0) },
            ])
            .proc(vec![
                SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal },
                SpecOp::Read { loc: Loc(1), label: ReadLabel::Pram },
                SpecOp::Barrier { barrier: BarrierId(0) },
            ])
    }

    #[test]
    fn text_round_trip_is_identity() {
        let spec = sample();
        let text = spec.to_text();
        let back = ProgSpec::parse(&text).unwrap();
        assert_eq!(spec, back);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn await_round_trips() {
        let spec = ProgSpec::new(Mode::Pram)
            .proc(vec![SpecOp::Write { loc: Loc(1), value: 1 }])
            .proc(vec![
                SpecOp::Await { loc: Loc(1), value: 1 },
                SpecOp::Read { loc: Loc(0), label: ReadLabel::Pram },
            ]);
        assert_eq!(ProgSpec::parse(&spec.to_text()).unwrap(), spec);
    }

    #[test]
    fn durability_round_trips_and_builds() {
        let spec = ProgSpec::new(Mode::Causal)
            .durable(4)
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }]);
        let text = spec.to_text();
        assert!(text.contains("durability 4"), "{text}");
        assert_eq!(ProgSpec::parse(&text).unwrap(), spec);
        // The built system actually logs: the run completes with WAL
        // activity in the metrics.
        let outcome = spec.build_system().run().unwrap();
        assert!(outcome.metrics.wal.appends > 0);
        assert_eq!(outcome.metrics.wal.lost, 0);
    }

    #[test]
    fn built_system_runs_and_records() {
        let outcome = sample().build_system().run().unwrap();
        let h = outcome.history.expect("recording enabled");
        assert_eq!(h.nprocs(), 2);
        assert_eq!(h.len(), sample().len());
        check::check_mixed(&h).unwrap();
    }

    #[test]
    fn models_round_trip_and_build() {
        let spec = ProgSpec::new(Mode::Mixed)
            .models(vec![
                mc_model::ProcModel::Fixed(mc_model::ModelSpec::SLOW),
                mc_model::ProcModel::Fixed(mc_model::ModelSpec::CAUSAL),
            ])
            .proc(vec![SpecOp::Write { loc: Loc(0), value: 1 }])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]);
        let text = spec.to_text();
        assert!(text.contains("models slow causal"), "{text}");
        assert_eq!(ProgSpec::parse(&text).unwrap(), spec);
        // The built system runs and verifies under the declarative
        // validator for the assigned lattice points.
        let outcome = spec.build_system().run().unwrap();
        outcome.verify().unwrap();
    }

    #[test]
    fn models_length_must_match_process_count() {
        let text = "mode mixed\nmodels slow\nproc 0\n  w 0 1\nproc 1\n  r 0 causal\n";
        let e = ProgSpec::parse(text).unwrap_err();
        assert!(e.contains("names 1 processes but the program has 2"), "{e}");
        assert!(ProgSpec::parse("mode mixed\nmodels frob\nproc 0\n  w 0 1\n").is_err());
    }

    #[test]
    fn duplicate_models_line_is_rejected() {
        let text = "mode mixed\nmodels slow causal\nmodels causal causal\n\
                    proc 0\n  w 0 1\nproc 1\n  r 0 causal\n";
        let e = ProgSpec::parse(text).unwrap_err();
        assert!(e.contains("duplicate `models` line"), "{e}");
    }

    #[test]
    fn shards_round_trip_and_build() {
        let spec = ProgSpec::new(Mode::Causal)
            .sharded(2)
            .proc(vec![
                SpecOp::Write { loc: Loc(0), value: 1 },
                SpecOp::Write { loc: Loc(1), value: 2 },
            ])
            .proc(vec![SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal }]);
        let text = spec.to_text();
        assert!(text.contains("shards 2"), "{text}");
        assert_eq!(ProgSpec::parse(&text).unwrap(), spec);
        let outcome = spec.build_system().run().unwrap();
        outcome.verify().unwrap();
    }

    #[test]
    fn interest_round_trips_and_enables_first_touch() {
        // Process 1's override omits shard 1; its read of Loc(1) must
        // subscribe on first touch rather than fault.
        let spec = ProgSpec::new(Mode::Causal)
            .sharded(2)
            .interest(1, vec![0])
            .proc(vec![SpecOp::Write { loc: Loc(1), value: 7 }])
            .proc(vec![SpecOp::Read { loc: Loc(1), label: ReadLabel::Pram }]);
        let text = spec.to_text();
        assert!(text.contains("interest 1 0"), "{text}");
        assert_eq!(ProgSpec::parse(&text).unwrap(), spec);
        let outcome = spec.build_system().run().unwrap();
        outcome.verify().unwrap();
    }

    #[test]
    fn shard_stanza_garbage_is_rejected() {
        let ok = "mode causal\nshards 2\nproc 0\n  w 0 1\n";
        assert!(ProgSpec::parse(ok).is_ok());
        for (bad, msg) in [
            ("mode causal\nshards 0\nproc 0\n  w 0 1\n", "bad shard count"),
            ("mode causal\nshards x\nproc 0\n  w 0 1\n", "bad shard count"),
            ("mode causal\nshards 2\nshards 2\nproc 0\n  w 0 1\n", "duplicate `shards`"),
            ("mode causal\nshards 2\ninterest 0 9\nproc 0\n  w 0 1\n", "names shard 9"),
            ("mode causal\nshards 2\ninterest 5 0\nproc 0\n  w 0 1\n", "names process 5"),
            ("mode causal\nshards 2\ninterest 0 banana\nproc 0\n  w 0 1\n", "bad shard id"),
            (
                "mode causal\nshards 2\ninterest 0 0\ninterest 0 1\nproc 0\n  w 0 1\n",
                "duplicate `interest`",
            ),
            ("mode causal\ninterest 0 0\nproc 0\n  w 0 1\n", "requires a `shards` line"),
            ("mode causal\nshards 2\nproc 0\n  l 0 w\n  u 0 w\n", "not supported"),
        ] {
            let e = ProgSpec::parse(bad).unwrap_err();
            assert!(e.contains(msg), "{bad:?}: {e}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ProgSpec::parse("mode bogus").is_err());
        assert!(ProgSpec::parse("mode pram\nw 0 1").is_err(), "op before proc");
        assert!(ProgSpec::parse("proc 0").is_err(), "missing mode");
        assert!(ProgSpec::parse("mode pram\nproc 1").is_err(), "out-of-order proc");
        assert!(ProgSpec::parse("mode pram\nproc 0\n  frobnicate 1").is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = ProgSpec::parse("# hello\nmode sc\n\nproc 0\n  w 0 3\n").unwrap();
        assert_eq!(spec.mode, Mode::Sc);
        assert_eq!(spec.procs, vec![vec![SpecOp::Write { loc: Loc(0), value: 3 }]]);
    }
}
