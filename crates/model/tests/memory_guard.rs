//! `check_model` keeps nothing of size n²: on a 100 000-operation mixed
//! history — locks of both modes, barriers, awaits, counter updates, reads
//! of both labels — its peak live heap stays under 64 MB. One dense
//! closure matrix at this size would be 1.25 GB. The same history with
//! its write order recorded, judged sequentially consistent against that
//! order, stays under 64 MB on a 2 MiB thread stack and checks as fast per
//! operation at 100 000 operations as at 10 000, within 2x.
//!
//! The counting allocator is process-wide, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mc_model::check::{CheckError, CheckReport};
use mc_model::spec::check_model;
use mc_model::{
    BarrierId, BarrierRound, History, HistoryBuilder, Loc, LockId, LockMode, ModelAssignment,
    ModelSpec, OpKind, ProcId, ReadLabel, Value, WriteId,
};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    PEAK.fetch_max(LIVE.fetch_add(by, Relaxed) + by, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const OPS: usize = 100_000;
const PROCS: usize = 4;
const COUNTER: Loc = Loc(100);
const COUNTER_START: i64 = 1 << 40;

/// A mixed history of `ops` operations. Every read returns the latest
/// write pushed to its location, and push order is a linear extension of
/// causality here (barrier rounds are pushed whole), so it is consistent —
/// sequentially so in push order, which `witness` records as the write
/// order.
fn history(ops: usize, witness: bool) -> History {
    let mut rng = StdRng::seed_from_u64(25);
    let mut b = HistoryBuilder::new(PROCS);
    b.set_initial(COUNTER, Value::Int(COUNTER_START));
    let mut latest: Vec<Option<(WriteId, Value)>> = vec![None; 16];
    let mut order: Vec<Vec<WriteId>> = vec![Vec::new(); 16];
    let mut updates: Vec<WriteId> = Vec::new();
    let mut next_value = 1;
    let mut round = 0;
    while b.len() < ops {
        let p = ProcId(rng.gen_range(0..PROCS as u32));
        let loc = rng.gen_range(0..16usize);
        let label = if rng.gen_bool(0.5) { ReadLabel::Causal } else { ReadLabel::Pram };
        let read = |b: &mut HistoryBuilder, latest: &[Option<(WriteId, Value)>]| {
            let (w, v) = latest[loc].unwrap_or((WriteId::initial(Loc(loc as u32)), Value::INITIAL));
            b.push_read_from(p, Loc(loc as u32), label, v, w);
        };
        let mut write = |b: &mut HistoryBuilder, latest: &mut [Option<(WriteId, Value)>]| {
            next_value += 1;
            let v = Value::Int(next_value);
            let w = b.push_write(p, Loc(loc as u32), v).1;
            latest[loc] = Some((w, v));
            order[loc].push(w);
        };
        match rng.gen_range(0..20) {
            0..=5 => write(&mut b, &mut latest),
            6..=11 => read(&mut b, &latest),
            12 => {
                b.push_lock(p, LockId(loc as u32 % 3), LockMode::Write);
                write(&mut b, &mut latest);
                b.push_unlock(p, LockId(loc as u32 % 3), LockMode::Write);
            }
            13 => {
                b.push_lock(p, LockId(loc as u32 % 3), LockMode::Read);
                read(&mut b, &latest);
                b.push_unlock(p, LockId(loc as u32 % 3), LockMode::Read);
            }
            14 => {
                if let Some((w, value)) = latest[loc] {
                    let writers = vec![w];
                    b.push(p, OpKind::Await { loc: Loc(loc as u32), value, writers });
                }
            }
            15 | 16 => updates.push(b.push_update(p, COUNTER, -1).1),
            17 => {
                if let Some(&w) = updates.last() {
                    let v = Value::Int(COUNTER_START - updates.len() as i64);
                    b.push_read_from(p, COUNTER, label, v, w);
                }
            }
            _ => {
                if rng.gen_bool(0.01) {
                    for q in 0..PROCS as u32 {
                        b.push_barrier(ProcId(q), BarrierId(0), BarrierRound(round));
                    }
                    round += 1;
                }
            }
        }
    }
    if witness {
        for (loc, writes) in order.into_iter().enumerate() {
            b.set_write_order(Loc(loc as u32), writes);
        }
        b.set_write_order(COUNTER, updates);
    }
    b.build().expect("the generated history is well-formed")
}

/// One `check_model` call: its verdict, the peak live heap it added, and
/// the operations it judged per second.
fn measured(
    h: &History,
    models: &ModelAssignment,
) -> (Result<CheckReport, CheckError>, usize, f64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let start = Instant::now();
    let verdict = check_model(h, models);
    let secs = start.elapsed().as_secs_f64();
    (verdict, PEAK.load(Relaxed) - base, h.len() as f64 / secs)
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

#[test]
fn check_model_stays_under_64_mb_on_100k_operations() {
    let h = history(OPS, false);
    let (verdict, peak, rate) = measured(&h, &ModelAssignment::mixed(PROCS));
    println!("check_model on {} ops: {:.1} MB peak live heap, {rate:.0} ops/s", h.len(), mb(peak));
    let report = verdict.expect("the generated history is mixed-consistent");
    assert!(report.skipped.is_empty());
    assert!(peak <= 64 << 20, "peak live heap {peak} B exceeds 64 MB");

    // The write-order witness path, on a thread with a 2 MiB stack; the
    // best of three runs per size evens out scheduling noise.
    let sc = ModelAssignment::uniform(PROCS, ModelSpec::SC);
    let witness_rate = |ops: usize| {
        let h = history(ops, true);
        let sc = sc.clone();
        let run = move || {
            let runs = (0..3).map(|_| measured(&h, &sc));
            let (mut best, mut worst_peak) = (0.0f64, 0);
            for (verdict, peak, rate) in runs {
                verdict.expect("sequentially consistent in its write order");
                (best, worst_peak) = (best.max(rate), worst_peak.max(peak));
            }
            (best, worst_peak)
        };
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(run);
        let (rate, peak) = thread.expect("thread spawns").join().expect("the check returns");
        println!("check_model by write order on {ops} ops: {:.1} MB, {rate:.0} ops/s", mb(peak));
        assert!(peak <= 64 << 20, "peak live heap {peak} B exceeds 64 MB at {ops} ops");
        rate
    };
    let (small, large) = (witness_rate(OPS / 10), witness_rate(OPS));
    assert!(large * 2.0 >= small, "{large:.0} ops/s at {OPS} ops against {small:.0} at a tenth");
}
