//! Exploration conformance suite: every litmus *program* is explored
//! both exhaustively (plain depth-first search) and with dynamic
//! partial-order reduction, and the two must agree on the complete set
//! of observable outcomes. This is the executable soundness check for
//! the reduction: DPOR may skip schedules, but never outcomes.
//!
//! The store-buffer and causality-chain programs additionally pin the
//! reduction *factor*: DPOR must explore at least 5x fewer schedules
//! than the naive enumeration.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mixed_consistency::explore::{explore_with, ExploreOptions, ExploreOutcome};
use mixed_consistency::{check, OpKind, ProcModel, ProgSpec, ReadLabel, SpecOp, Value};

fn w(loc: u32, value: i64) -> SpecOp {
    SpecOp::Write { loc: mixed_consistency::Loc(loc), value }
}

fn r(loc: u32, label: ReadLabel) -> SpecOp {
    SpecOp::Read { loc: mixed_consistency::Loc(loc), label }
}

/// Dekker's store buffer: both reads may see 0.
fn store_buffer() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1), r(1, ReadLabel::Causal)])
        .proc(vec![w(1, 1), r(0, ReadLabel::Causal)])
}

/// The causality chain of Section 2 with PRAM reads at the tail
/// process (stale reads allowed under Definition 3/4).
fn causality_chain() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1)])
        .proc(vec![r(0, ReadLabel::Causal), w(1, 2)])
        .proc(vec![r(1, ReadLabel::Pram), r(0, ReadLabel::Pram)])
}

/// Independent reads of independent writes.
fn iriw() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1)])
        .proc(vec![w(1, 1)])
        .proc(vec![r(0, ReadLabel::Causal), r(1, ReadLabel::Causal)])
        .proc(vec![r(1, ReadLabel::Causal), r(0, ReadLabel::Causal)])
}

/// Write-to-read causality with PRAM tail reads.
fn wrc() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1)])
        .proc(vec![r(0, ReadLabel::Causal), w(1, 1)])
        .proc(vec![r(1, ReadLabel::Pram), r(0, ReadLabel::Pram)])
}

/// Two writers with opposite program orders, two observers.
fn two_plus_two_w() -> ProgSpec {
    ProgSpec::new(ProcModel::MIXED)
        .proc(vec![w(0, 1), w(1, 2)])
        .proc(vec![w(1, 1), w(0, 2)])
        .proc(vec![r(0, ReadLabel::Causal), r(0, ReadLabel::Causal)])
}

/// Explores the program and returns the outcome plus the set of
/// distinct read-observation vectors, verifying mixed consistency
/// (Definition 4) on every execution.
///
/// Read vectors are collected in canonical per-process program order,
/// not execution order: the history records operations as they
/// interleave, and DPOR explores one representative interleaving per
/// equivalence class, so only an interleaving-insensitive projection
/// can be compared between naive and reduced exploration.
fn outcomes(spec: &ProgSpec, options: ExploreOptions) -> (ExploreOutcome, BTreeSet<Vec<i64>>) {
    outcomes_with(spec, options, || spec.build_system())
}

/// Like [`outcomes`], but with a custom system builder (e.g. the same
/// spec with batching enabled).
fn outcomes_with(
    spec: &ProgSpec,
    options: ExploreOptions,
    build: impl Fn() -> mixed_consistency::System + Send + Sync,
) -> (ExploreOutcome, BTreeSet<Vec<i64>>) {
    let seen = Mutex::new(BTreeSet::new());
    let out = explore_with(options, build, |o| {
        let h = o.history.as_ref().expect("recording enabled");
        check::check_mixed(h).map_err(|e| e.to_string())?;
        let mut reads: Vec<(u32, i64)> = h
            .iter()
            .filter_map(|(_, op)| match op.kind {
                OpKind::Read { value: Value::Int(v), .. } => Some((op.proc.0, v)),
                _ => None,
            })
            .collect();
        reads.sort_by_key(|&(p, _)| p);
        seen.lock().unwrap().insert(reads.into_iter().map(|(_, v)| v).collect::<Vec<i64>>());
        Ok(())
    })
    .unwrap_or_else(|e| panic!("{}: {e}", spec.to_text()));
    (out, seen.into_inner().unwrap())
}

fn conformance(name: &str, spec: &ProgSpec) -> (ExploreOutcome, ExploreOutcome) {
    let (naive, naive_set) = outcomes(spec, ExploreOptions::new().dpor(false).max_runs(3_000_000));
    let (dpor, dpor_set) = outcomes(spec, ExploreOptions::new().max_runs(3_000_000));
    assert!(naive.complete, "{name}: naive DFS must exhaust the tree ({} runs)", naive.runs);
    assert!(dpor.complete, "{name}: DPOR must exhaust the tree ({} runs)", dpor.runs);
    assert_eq!(naive_set, dpor_set, "{name}: DPOR lost or invented outcomes");
    assert!(!naive_set.is_empty(), "{name}: litmus program must produce reads");
    assert!(
        dpor.runs <= naive.runs,
        "{name}: DPOR ({}) explored more than naive DFS ({})",
        dpor.runs,
        naive.runs
    );
    println!(
        "{name}: naive {} runs, dpor {} runs ({} pruned, {} outcomes) — {:.1}x reduction",
        naive.runs,
        dpor.runs,
        dpor.pruned,
        dpor.unique_outcomes,
        naive.runs as f64 / dpor.runs as f64
    );
    (naive, dpor)
}

#[test]
fn store_buffer_conformance_and_reduction() {
    let (naive, dpor) = conformance("store_buffer", &store_buffer());
    assert!(
        naive.runs >= 5 * dpor.runs,
        "DPOR must explore at least 5x fewer schedules: naive {} vs dpor {}",
        naive.runs,
        dpor.runs
    );
}

#[test]
fn causality_chain_conformance_and_reduction() {
    let (naive, dpor) = conformance("causality_chain", &causality_chain());
    assert!(
        naive.runs >= 5 * dpor.runs,
        "DPOR must explore at least 5x fewer schedules: naive {} vs dpor {}",
        naive.runs,
        dpor.runs
    );
}

#[test]
fn wrc_conformance() {
    conformance("wrc", &wrc());
}

#[test]
fn two_plus_two_w_conformance() {
    conformance("two_plus_two_w", &two_plus_two_w());
}

#[test]
#[ignore = "large naive tree; run explicitly with --ignored"]
fn iriw_conformance() {
    conformance("iriw", &iriw());
}

#[test]
fn dpor_parallel_workers_agree_on_litmus_outcomes() {
    let spec = store_buffer();
    let (seq, seq_set) = outcomes(&spec, ExploreOptions::new());
    let (par, par_set) = outcomes(&spec, ExploreOptions::new().workers(4));
    assert!(seq.complete && par.complete);
    assert_eq!(seq_set, par_set, "worker split must not change the outcome set");
}

/// Batching conformance: explores `spec` with batching enabled and
/// compares against the unbatched DPOR outcome set, which must be
/// *identical*. A batch closes at the next operation's entry once its
/// link is idle, and the simulator runs that entry where the program
/// submits the operation — within the step that resumed the process, not
/// the one that serves the operation — so a flush on an idle link races
/// the surrounding operations like an unbatched send, and the idle query
/// is ordered against the deliveries. Every execution stays checker-green (the
/// `check_mixed` call inside [`outcomes_with`] enforces that).
fn batched_conformance(name: &str, spec: &ProgSpec) {
    let opts = || ExploreOptions::new().max_runs(3_000_000);
    let (base, base_set) = outcomes(spec, opts());
    assert!(base.complete, "{name}: unbatched DPOR must exhaust the tree");

    let policy = mixed_consistency::BatchPolicy::default();
    let (batched, batched_set) =
        outcomes_with(spec, opts(), || spec.build_system().batching(Some(policy)));
    assert!(batched.complete, "{name}: batched DPOR must exhaust the tree");
    assert_eq!(batched_set, base_set, "{name}: batching changed the observable outcome set");
    println!(
        "{name}: {} outcomes; unbatched {} runs, batched {} runs",
        base_set.len(),
        base.runs,
        batched.runs
    );
}

#[test]
fn batched_iriw_conformance() {
    batched_conformance("iriw", &iriw());
}

#[test]
fn batched_wrc_conformance() {
    batched_conformance("wrc", &wrc());
}

#[test]
fn batched_two_plus_two_w_conformance() {
    batched_conformance("two_plus_two_w", &two_plus_two_w());
}

#[test]
fn batched_store_buffer_conformance() {
    batched_conformance("store_buffer", &store_buffer());
}
