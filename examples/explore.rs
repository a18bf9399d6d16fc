//! Exhaustive schedule exploration: verify a program's consistency on
//! EVERY scheduler interleaving, not just sampled seeds.
//!
//! The kernel's tie-breaking decisions are the only nondeterminism under
//! a zero-latency, zero-cost configuration; exploration enumerates the
//! decision tree depth-first (the systematic concurrency-testing
//! approach) and runs the checkers on each execution. Dynamic
//! partial-order reduction then covers the same outcome space with one
//! representative per commuting class of schedules, and a seeded fault
//! budget turns the explorer into a counterexample generator whose
//! minimized artifacts replay through `mc-check --replay`.
//!
//! Run with: `cargo run --example explore --release`

use mixed_consistency::explore::ExploreOptions;
use mixed_consistency::repro::find_and_minimize;
use mixed_consistency::{
    check, explore, sc, FaultBudget, Loc, ProcModel, ProgSpec, ReadLabel, SpecOp, System, Value,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------ store buffer
    // Dekker's litmus on mixed memory: count how many schedules realize
    // each read outcome, verifying Definition 4 on every one.
    let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
    let report = explore::explore(
        20_000,
        || {
            let mut sys =
                System::new(2, ProcModel::MIXED).record(true).sim_config(explore::racing_config());
            sys.spawn(|ctx| {
                ctx.write(Loc(0), 1);
                let _ = ctx.read_causal(Loc(1));
            });
            sys.spawn(|ctx| {
                ctx.write(Loc(1), 1);
                let _ = ctx.read_causal(Loc(0));
            });
            sys
        },
        |o| {
            let h = o.history.as_ref().unwrap();
            check::check_mixed(h).map_err(|e| e.to_string())?;
            let reads: Vec<i64> = h
                .iter()
                .filter_map(|(_, op)| match op.kind {
                    mixed_consistency::OpKind::Read { value: Value::Int(v), .. } => Some(v),
                    _ => None,
                })
                .collect();
            let sc_ok = !matches!(
                sc::check_sequential(h).map_err(|e| e.to_string())?,
                sc::ScVerdict::NotSequentiallyConsistent
            );
            *outcomes
                .entry(format!("r0(y)={} r1(x)={} sc={}", reads[0], reads[1], sc_ok))
                .or_default() += 1;
            Ok(())
        },
    )?;

    println!("store-buffer litmus on mixed memory:");
    println!(
        "  explored {} schedules (complete: {}, max depth {})\n",
        report.runs, report.complete, report.max_depth
    );
    println!("  outcome distribution:");
    for (outcome, count) in &outcomes {
        println!("    {outcome:<28} x{count}");
    }
    println!("\n  every schedule was mixed consistent (Definition 4) ✓");
    println!("  the sc=false rows are the weak-memory outcomes sequential");
    println!("  consistency forbids — causal memory permits them.\n");

    // -------------------------------------------- partial-order reduction
    // The same program under DPOR: identical outcome coverage, a
    // fraction of the schedules (see tests/explore_litmus.rs for the
    // conformance proof obligations).
    let spec = ProgSpec::new(ProcModel::MIXED)
        .proc(vec![
            SpecOp::Write { loc: Loc(0), value: 1 },
            SpecOp::Read { loc: Loc(1), label: ReadLabel::Causal },
        ])
        .proc(vec![
            SpecOp::Write { loc: Loc(1), value: 1 },
            SpecOp::Read { loc: Loc(0), label: ReadLabel::Causal },
        ]);
    let verify = |o: &mixed_consistency::Outcome| {
        check::check_mixed(o.history.as_ref().unwrap()).map(|_| ()).map_err(|e| e.to_string())
    };
    let naive =
        explore::explore_with(ExploreOptions::new().dpor(false), || spec.build_system(), verify)?;
    let dpor = explore::explore_with(ExploreOptions::new(), || spec.build_system(), verify)?;
    println!("dynamic partial-order reduction on the same litmus:");
    println!(
        "  naive DFS: {} schedules; DPOR: {} ({} sleep-pruned) — {:.1}x fewer,",
        naive.runs,
        dpor.runs,
        dpor.pruned,
        naive.runs as f64 / dpor.runs as f64
    );
    println!("  covering the identical {} canonical outcomes ✓\n", dpor.unique_outcomes);

    // ------------------------------------------- counterexample pipeline
    // Give the explorer one message drop to spend on a PRAM store chain:
    // it finds the consistency violation, shrinks program and decision
    // trace, and emits an artifact `mc-check --replay` re-executes.
    let fragile = ProgSpec::new(ProcModel::PRAM)
        .proc(vec![
            SpecOp::Write { loc: Loc(0), value: 1 },
            SpecOp::Write { loc: Loc(0), value: 2 },
            SpecOp::Write { loc: Loc(1), value: 1 },
        ])
        .proc(vec![
            SpecOp::Await { loc: Loc(1), value: 1 },
            SpecOp::Read { loc: Loc(0), label: ReadLabel::Pram },
        ]);
    let budget = FaultBudget::new().drops(1);
    let options = ExploreOptions::new().allow_deadlock(true).max_runs(50_000);
    // Dropped-message runs may deadlock (tolerated dead ends under
    // `allow_deadlock`); the silent panic hook hides the kernel's
    // noisy-but-expected unwind of those aborted process threads.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let repro = find_and_minimize(&fragile, Some(&budget), &options)
        .expect("one dropped update breaks PRAM consistency");
    std::panic::set_hook(default_hook);
    println!("minimized counterexample (replay with `mc-check <file> --replay`):");
    for line in repro.to_text().lines() {
        println!("  | {line}");
    }
    println!();

    // ----------------------------------------------------- message-passing flag
    // The await idiom is SC on every schedule — exploration *proves* it
    // for this program size.
    let report = explore::explore(
        20_000,
        || {
            let mut sys =
                System::new(2, ProcModel::MIXED).record(true).sim_config(explore::racing_config());
            sys.spawn(|ctx| {
                ctx.write(Loc(0), 42);
                ctx.write(Loc(1), 1);
            });
            sys.spawn(|ctx| {
                ctx.await_eq(Loc(1), 1);
                assert_eq!(ctx.read_pram(Loc(0)), Value::Int(42));
            });
            sys
        },
        |o| {
            let h = o.history.as_ref().unwrap();
            check::check_mixed(h).map_err(|e| e.to_string())?;
            match sc::check_sequential(h).map_err(|e| e.to_string())? {
                sc::ScVerdict::NotSequentiallyConsistent => Err("not SC".into()),
                _ => Ok(()),
            }
        },
    )?;
    println!("producer/consumer await idiom:");
    println!(
        "  {} schedules, complete: {} — sequentially consistent on ALL of them ✓",
        report.runs, report.complete
    );
    Ok(())
}
