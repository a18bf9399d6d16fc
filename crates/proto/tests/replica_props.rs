//! Property tests for the replica layer: causal gating must make replica
//! state independent of network delivery order, the PRAM fast path
//! must preserve per-sender order, and a release's demand-driven dirty
//! set is what the paper's definition over the own-write log says.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use mc_model::{Loc, LockId, ProcId, VClock, Value, WriteId};
use mc_proto::{DsmConfig, Mode, Replica, UpdatePayload};

/// A generated write: `(writer, loc, value-id)`. Sequence numbers are
/// assigned per writer in order; dependency vectors make each writer's
/// stream depend on everything it "had seen" at generation time
/// (simulating causal tagging).
#[derive(Clone, Debug)]
struct GenWrite {
    writer: u32,
    loc: u32,
    value: i64,
}

fn gen_writes(nprocs: u32, max: usize) -> impl Strategy<Value = Vec<GenWrite>> {
    proptest::collection::vec((0..nprocs, 0..4u32), 1..=max).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (writer, loc))| GenWrite { writer, loc, value: 1000 + i as i64 })
            .collect()
    })
}

/// Tags the generated writes like the causal protocol would: each write's
/// dependency vector is the "global knowledge" at its generation point —
/// a worst-case (fully chained) causal history.
fn tag(writes: &[GenWrite], nprocs: usize) -> Vec<(WriteId, Loc, UpdatePayload, VClock)> {
    let mut knowledge = VClock::new(nprocs);
    let mut out = Vec::new();
    for w in writes {
        let writer = ProcId(w.writer);
        knowledge.tick(writer);
        out.push((
            WriteId::new(writer, knowledge.get(writer)),
            Loc(w.loc),
            UpdatePayload::Set(Value::Int(w.value)),
            knowledge.clone(),
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Causal gating: any delivery permutation applies every update and
    /// converges to the same store as in-order delivery.
    #[test]
    fn causal_replicas_converge_under_any_delivery_order(
        writes in gen_writes(3, 14),
        perm_seed in any::<u64>(),
    ) {
        let nprocs = 4; // 3 writers + the observer
        let tagged = tag(&writes, nprocs);

        // Reference replica: in-order delivery.
        let mut reference = Replica::new(ProcId(3), nprocs);
        for (id, loc, payload, deps) in &tagged {
            reference.ingest(*id, *loc, payload.clone(), Some(deps.clone()), Mode::Causal);
        }
        prop_assert_eq!(reference.pending_len(), 0);

        // Observer replica: seeded shuffle.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = tagged.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(perm_seed));
        let mut observer = Replica::new(ProcId(3), nprocs);
        for (id, loc, payload, deps) in &shuffled {
            observer.ingest(*id, *loc, payload.clone(), Some(deps.clone()), Mode::Causal);
        }

        prop_assert_eq!(observer.pending_len(), 0, "everything eventually applies");
        for l in 0..4u32 {
            prop_assert_eq!(
                observer.peek(Loc(l)),
                reference.peek(Loc(l)),
                "store diverged at x{} after reordering", l
            );
        }
        prop_assert!(observer.applied.dominates(&reference.applied));
        prop_assert!(reference.applied.dominates(&observer.applied));
    }

    /// With a fully chained causal history, the final value of every
    /// location is its globally *last* write — delivery order cannot
    /// resurrect older values through the causal gate.
    #[test]
    fn causal_final_values_are_the_newest_writes(
        writes in gen_writes(3, 12),
        perm_seed in any::<u64>(),
    ) {
        let nprocs = 4;
        let tagged = tag(&writes, nprocs);
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = tagged.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(perm_seed));
        let mut r = Replica::new(ProcId(3), nprocs);
        for (id, loc, payload, deps) in &shuffled {
            r.ingest(*id, *loc, payload.clone(), Some(deps.clone()), Mode::Causal);
        }
        for l in 0..4u32 {
            let expect = writes.iter().rev().find(|w| w.loc == l).map(|w| w.value);
            match expect {
                Some(v) => prop_assert_eq!(r.peek(Loc(l)), Value::Int(v)),
                None => prop_assert_eq!(r.peek(Loc(l)), Value::INITIAL),
            }
        }
    }

    /// The PRAM fast path with per-sender in-order delivery: each
    /// location's final value comes from the (sender-wise) newest applied
    /// write of the sender that delivered last — and for single-writer
    /// locations it is exactly that writer's last value.
    #[test]
    fn pram_single_writer_locations_end_at_last_write(
        writes in gen_writes(1, 12),
    ) {
        let mut r = Replica::new(ProcId(1), 2);
        let mut seq = 0u32;
        for w in &writes {
            seq += 1;
            r.ingest(
                WriteId::new(ProcId(0), seq),
                Loc(w.loc),
                UpdatePayload::Set(Value::Int(w.value)),
                None,
                Mode::Pram,
            );
        }
        for l in 0..4u32 {
            let expect = writes.iter().rev().find(|w| w.loc == l).map(|w| w.value);
            match expect {
                Some(v) => prop_assert_eq!(r.peek(Loc(l)), Value::Int(v)),
                None => prop_assert_eq!(r.peek(Loc(l)), Value::INITIAL),
            }
        }
        prop_assert_eq!(r.applied.get(ProcId(0)), writes.len() as u32);
    }

    /// Counter deltas commute exactly (integers): any delivery order of
    /// increments yields the same sum at every replica.
    #[test]
    fn counter_deltas_commute(
        deltas in proptest::collection::vec(-5i64..=5, 1..12),
        perm_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let nprocs = 2;
        let tagged: Vec<_> = deltas
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let mut deps = VClock::new(nprocs);
                deps.set(ProcId(0), i as u32 + 1);
                (WriteId::new(ProcId(0), i as u32 + 1), d, deps)
            })
            .collect();
        let mut shuffled = tagged.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(perm_seed));

        let mut r = Replica::new(ProcId(1), nprocs);
        for (id, d, deps) in &shuffled {
            r.ingest(
                *id,
                Loc(0),
                UpdatePayload::Add(Value::Int(*d)),
                Some(deps.clone()),
                Mode::Causal,
            );
        }
        let sum: i64 = deltas.iter().sum();
        prop_assert_eq!(r.peek(Loc(0)), Value::Int(sum));
        prop_assert_eq!(r.await_writers(Loc(0)).len(), deltas.len());
    }
}

/// The dirty set by definition: the latest own write per location among
/// the writes logged since `since`, by location.
fn dirty_by_log(log: &[(Loc, u32)], since: usize) -> Vec<(Loc, u32)> {
    let latest: BTreeMap<Loc, u32> = log[since..].iter().copied().collect();
    latest.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On any sequence of own writes and releases over several locks,
    /// [`Replica::take_dirty`] ships exactly the latest own write per
    /// location since that lock's previous release — computed here from
    /// a log of every own write, which the replica does not keep.
    #[test]
    fn take_dirty_equals_the_write_log_definition(
        ops in proptest::collection::vec((any::<bool>(), 0..16u32, any::<bool>()), 0..200),
    ) {
        let cfg = DsmConfig::new(2, Mode::Causal);
        let mut r = Replica::new(ProcId(0), 2);
        let mut log = Vec::new();
        let mut shipped: HashMap<LockId, usize> = HashMap::new();
        for (write, x, add) in ops {
            if write {
                let payload = match add {
                    true => UpdatePayload::Add(Value::Int(1)),
                    false => UpdatePayload::Set(Value::Int(x.into())),
                };
                let (id, _) = r.local_write(Loc(x), payload, &cfg);
                log.push((Loc(x), id.seq));
            } else {
                let lock = LockId(x % 3);
                let since = shipped.insert(lock, log.len()).unwrap_or(0);
                prop_assert_eq!(r.take_dirty(lock), dirty_by_log(&log, since));
            }
        }
    }
}

#[test]
fn partial_delivery_blocks_only_the_gap() {
    // Deliver a writer's stream with one gap: everything after the gap
    // stays pending in causal mode until the gap fills.
    let nprocs = 2;
    let mut r = Replica::new(ProcId(1), nprocs);
    let mk = |seq: u32| {
        let mut deps = VClock::new(nprocs);
        deps.set(ProcId(0), seq);
        (WriteId::new(ProcId(0), seq), deps)
    };
    let (w1, d1) = mk(1);
    let (w2, d2) = mk(2);
    let (w3, d3) = mk(3);
    r.ingest(w1, Loc(0), UpdatePayload::Set(Value::Int(1)), Some(d1), Mode::Causal);
    r.ingest(w3, Loc(0), UpdatePayload::Set(Value::Int(3)), Some(d3), Mode::Causal);
    assert_eq!(r.peek(Loc(0)), Value::Int(1), "w3 gated behind the missing w2");
    assert_eq!(r.pending_len(), 1);
    r.ingest(w2, Loc(0), UpdatePayload::Set(Value::Int(2)), Some(d2), Mode::Causal);
    assert_eq!(r.peek(Loc(0)), Value::Int(3));
    assert_eq!(r.pending_len(), 0);
}
