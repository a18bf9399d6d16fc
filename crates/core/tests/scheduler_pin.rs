//! The simulator's scheduling decisions, pinned to exact numbers: a
//! seeded three-process program of writes and causal/PRAM reads runs to
//! these counters, this finish time and this history on every build.
//!
//! The constants were computed once and are never edited to make a
//! change pass: a kernel refactor that moves any of them has changed
//! which action the scheduler picks somewhere, not only how fast.

use mixed_consistency::{Loc, ProcModel, ReadLabel, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROCS: usize = 3;
const ITERS: usize = 150;

/// Per process: `ITERS` iterations of (a write or a causal read), then
/// a PRAM read. Written values are unique per process and iteration.
fn program(seed: u64, p: usize, ctx: &mut mixed_consistency::Ctx<'_>) {
    let mut rng = StdRng::seed_from_u64(seed * PROCS as u64 + p as u64);
    for i in 0..ITERS {
        let loc = Loc(rng.gen_range(0..6));
        if rng.gen_bool(0.5) {
            ctx.write(loc, ((p as i64) << 32) | (i as i64 + 1));
        } else {
            ctx.read(loc, ReadLabel::Causal);
        }
        ctx.read(Loc(rng.gen_range(0..6)), ReadLabel::Pram);
    }
}

/// `(events, messages, bytes, finish_time_ns, history signature)`.
fn run(seed: u64) -> (u64, u64, u64, u64, u64) {
    let mut sys = System::new(PROCS, ProcModel::MIXED).seed(seed).record(true);
    for p in 0..PROCS {
        sys.spawn(move |ctx| program(seed, p, ctx));
    }
    let out = sys.run().expect("reads and writes never block");
    let h = out.history.expect("recording was on");
    assert_eq!(h.len(), PROCS * ITERS * 2);
    let m = out.metrics;
    (m.events, m.messages, m.bytes, m.finish_time.as_nanos(), h.signature())
}

#[test]
fn seeded_mixed_program_runs_to_the_pinned_counters_and_history() {
    assert_eq!(run(5), (1334, 434, 15624, 35642, 2963482797175836258));
    assert_eq!(run(12), (1360, 460, 16560, 35824, 6526678325073641278));
}
