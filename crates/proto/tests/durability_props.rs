//! Property tests for the durability codec: whatever `kill -9`, a torn
//! page-cache flush, or a flipped bit leaves in `wal.log`, recovery must
//! either replay a *valid prefix* of what was logged or stop with a
//! clean diagnostic — never silently apply a record that was not
//! written.

use proptest::prelude::*;

use mc_model::{Loc, ProcId, VClock, Value, WriteId};
use mc_proto::durability::SnapBatch;
use mc_proto::{crc32, decode_wal, BatchEntry, Msg, Snapshot, UpdatePayload, WalRecord, WalTail};

fn gen_clock() -> impl Strategy<Value = VClock> {
    proptest::collection::vec(0..20u32, 3usize).prop_map(|counts| {
        let mut vc = VClock::new(3);
        for (i, c) in counts.into_iter().enumerate() {
            vc.set(ProcId(i as u32), c);
        }
        vc
    })
}

fn gen_opt_clock() -> impl Strategy<Value = Option<VClock>> {
    (any::<bool>(), gen_clock()).prop_map(|(some, vc)| some.then_some(vc))
}

fn gen_value() -> BoxedStrategy<Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-1000i64..1000).prop_map(|i| Value::F64(i as f64 / 3.0)),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

fn gen_payload() -> impl Strategy<Value = UpdatePayload> {
    prop_oneof![
        gen_value().prop_map(UpdatePayload::Set),
        (-50i64..50).prop_map(|d| UpdatePayload::Add(Value::Int(d))),
    ]
}

fn gen_writer() -> impl Strategy<Value = WriteId> {
    (0..3u32, 1..100u32).prop_map(|(p, seq)| WriteId::new(ProcId(p), seq))
}

fn gen_triples() -> impl Strategy<Value = Vec<(u32, ProcId, u32)>> {
    proptest::collection::vec((0..4u32, 0..3u32, 0..20u32), 0..3)
        .prop_map(|ts| ts.into_iter().map(|(s, p, c)| (s, ProcId(p), c)).collect())
}

/// Batch entries as `(loc, payload, seq)`; [`entries`] makes them own
/// writes of the batch's process, the invariant the protocol keeps.
fn gen_entry_parts() -> impl Strategy<Value = Vec<(u32, UpdatePayload, u32)>> {
    proptest::collection::vec((0..8u32, gen_payload(), 1..100u32), 0..3)
}

fn entries(proc: ProcId, parts: Vec<(u32, UpdatePayload, u32)>) -> Vec<BatchEntry> {
    parts
        .into_iter()
        .map(|(loc, payload, seq)| {
            let adds = match payload {
                UpdatePayload::Add(_) => vec![seq],
                UpdatePayload::Set(_) => Vec::new(),
            };
            BatchEntry { loc: Loc(loc), payload, writer: WriteId::new(proc, seq), adds }
        })
        .collect()
}

/// `(proc, shard, (prev, upto, seen), entries, deps)` of a sharded chain.
#[allow(clippy::type_complexity)]
fn gen_chain() -> impl Strategy<
    Value = (u32, u32, (u32, u32, u32), Vec<(u32, UpdatePayload, u32)>, Vec<(u32, ProcId, u32)>),
> {
    (0..3u32, 0..4u32, (0..50u32, 0..50u32, 0..50u32), gen_entry_parts(), gen_triples())
}

/// Every message kind an ingest record accepts.
fn gen_ingest() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (gen_writer(), 0..8u32, gen_payload(), gen_opt_clock()).prop_map(
            |(writer, loc, payload, deps)| Msg::Update { writer, loc: Loc(loc), payload, deps }
        ),
        ((0..3u32, 1..50u32, 0..4u32), gen_entry_parts(), gen_opt_clock(), 0..50u32).prop_map(
            |((p, first_seq, span), parts, deps, seen)| Msg::RecoverResp {
                proc: ProcId(p),
                first_seq,
                upto: first_seq + span,
                entries: entries(ProcId(p), parts),
                deps,
                seen,
            }
        ),
        (gen_writer(), 0..8u32, gen_payload(), 0..50u32, gen_triples()).prop_map(
            |(writer, loc, payload, prev, deps)| Msg::ShardUpdate {
                writer,
                loc: Loc(loc),
                payload,
                prev,
                deps,
            }
        ),
        gen_chain().prop_map(|(p, shard, (prev, upto, _), parts, deps)| {
            let entries = entries(ProcId(p), parts).into();
            Msg::ShardUpdateBatch { proc: ProcId(p), shard, prev, upto, entries, deps }
        }),
        gen_chain().prop_map(|(p, shard, (prev, upto, seen), parts, deps)| Msg::ShardRecoverResp {
            proc: ProcId(p),
            shard,
            prev,
            upto,
            entries: entries(ProcId(p), parts),
            deps,
            seen,
        }),
    ]
}

/// Every record kind.
fn gen_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        1 => (0..8u32, gen_payload(), gen_opt_clock())
            .prop_map(|(loc, payload, deps)| WalRecord::OwnWrite { loc: Loc(loc), payload, deps }),
        1 => (0..8u32, gen_payload(), gen_triples()).prop_map(|(loc, payload, deps)| {
            WalRecord::OwnWriteSharded { loc: Loc(loc), payload, deps }
        }),
        1 => (0..16u32).prop_map(|incarnation| WalRecord::Incarnation { incarnation }),
        1 => (0..16u32).prop_map(|shard| WalRecord::Subscribe { shard }),
        3 => gen_ingest().prop_map(WalRecord::Ingest),
    ]
}

/// A snapshot with every list populated.
fn gen_snapshot() -> impl Strategy<Value = Snapshot> {
    let store =
        proptest::collection::vec((0..8u32, gen_value(), any::<bool>(), gen_writer()), 0..4);
    let pending =
        proptest::collection::vec((gen_writer(), 0..8u32, gen_payload(), gen_clock()), 0..3);
    let batches =
        proptest::collection::vec(((0..3u32, 1..50u32), gen_entry_parts(), gen_clock()), 0..3);
    let marks = proptest::collection::vec((0..3u32, any::<u64>()), 0..3);
    ((0..8u32, gen_clock()), store, (pending, batches), marks).prop_map(
        |((incarnation, applied), store, (pending, batches), marks)| Snapshot {
            incarnation,
            applied,
            store: store
                .into_iter()
                .map(|(l, v, some, w)| (Loc(l), v, some.then_some(w)))
                .collect(),
            counter_updates: vec![(Loc(0), vec![WriteId::new(ProcId(1), 1)])],
            pending_batches: pending
                .into_iter()
                .map(|(writer, l, payload, deps)| SnapBatch {
                    proc: writer.proc,
                    first_seq: writer.seq,
                    upto: writer.seq,
                    entries: entries(writer.proc, vec![(l, payload, writer.seq)]),
                    deps,
                })
                .chain(batches.into_iter().map(|((p, upto), parts, deps)| SnapBatch {
                    proc: ProcId(p),
                    first_seq: 1,
                    upto,
                    entries: entries(ProcId(p), parts),
                    deps,
                }))
                .collect(),
            watermarks: marks.into_iter().map(|(p, d)| (ProcId(p), d)).collect(),
        },
    )
}

/// Encodes each record separately so tests know the frame boundaries.
fn frames(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut log = Vec::new();
    let mut starts = Vec::new();
    for rec in records {
        starts.push(log.len());
        log.extend_from_slice(&rec.encode());
    }
    (log, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A log written whole reads back whole: every generated record
    /// sequence round-trips with a clean tail.
    #[test]
    fn wal_round_trips_any_record_sequence(
        records in proptest::collection::vec(gen_record(), 0..12),
    ) {
        let (log, _) = frames(&records);
        let (decoded, tail) = decode_wal(&log);
        prop_assert_eq!(tail, WalTail::Clean);
        prop_assert_eq!(decoded, records);
    }

    /// Truncation at *any* byte — what an interrupted flush leaves —
    /// yields exactly the fully-flushed record prefix, with `Clean` on a
    /// frame boundary and `Torn` (pointing at the boundary) inside one.
    #[test]
    fn truncation_at_any_byte_yields_the_valid_prefix(
        records in proptest::collection::vec(gen_record(), 1..10),
        cut_sel in any::<u64>(),
    ) {
        let (log, starts) = frames(&records);
        let cut = (cut_sel % (log.len() as u64 + 1)) as usize;
        let (decoded, tail) = decode_wal(&log[..cut]);

        // A frame survives iff it ends at or before the cut.
        let mut survivors = 0;
        for (k, &s) in starts.iter().enumerate() {
            let end = starts.get(k + 1).copied().unwrap_or(log.len());
            if s < cut && end <= cut {
                survivors = k + 1;
            }
        }
        prop_assert_eq!(decoded.len(), survivors, "cut at {} of {}", cut, log.len());
        prop_assert_eq!(&decoded[..], &records[..survivors]);
        let boundary = starts.get(survivors).copied().unwrap_or(log.len());
        if cut == boundary {
            prop_assert_eq!(tail, WalTail::Clean);
        } else {
            prop_assert_eq!(tail, WalTail::Torn { at: boundary });
        }
    }

    /// A single flipped bit anywhere in frame `k` never forges a record:
    /// decoding returns records `0..k` unchanged and flags the damaged
    /// frame as `Torn` (length field mangled past the buffer) or
    /// `Corrupt` (CRC or body-parse failure) — at frame k's boundary.
    #[test]
    fn single_bit_flip_cannot_forge_records(
        records in proptest::collection::vec(gen_record(), 1..10),
        frame_sel in any::<u64>(),
        bit_sel in any::<u64>(),
    ) {
        let (mut log, starts) = frames(&records);
        let k = (frame_sel % records.len() as u64) as usize;
        let start = starts[k];
        let end = starts.get(k + 1).copied().unwrap_or(log.len());
        let bit = (bit_sel % ((end - start) as u64 * 8)) as usize;
        log[start + bit / 8] ^= 1 << (bit % 8);

        let (decoded, tail) = decode_wal(&log);
        prop_assert_eq!(&decoded[..], &records[..k], "flip in frame {} forged a record", k);
        prop_assert!(
            tail == WalTail::Torn { at: start } || tail == WalTail::Corrupt { at: start },
            "flip in frame {} went undiagnosed: {:?}", k, tail
        );
    }

    /// A corrupted frame *length* field — including values near
    /// `u32::MAX` that a random bit-flip almost never produces — must
    /// yield `Torn` at that frame with the prefix intact, and must not
    /// attempt an allocation or slice anywhere near the poisoned size.
    #[test]
    fn huge_frame_length_fields_yield_torn_not_oom(
        records in proptest::collection::vec(gen_record(), 1..8),
        frame_sel in any::<u64>(),
        poison in (0u32..4).prop_map(|i| {
            [u32::MAX, u32::MAX - 7, i32::MAX as u32, 1u32 << 30][i as usize]
        }),
    ) {
        let (mut log, starts) = frames(&records);
        let k = (frame_sel % records.len() as u64) as usize;
        let s = starts[k];
        log[s..s + 4].copy_from_slice(&poison.to_le_bytes());
        let (decoded, tail) = decode_wal(&log);
        prop_assert_eq!(&decoded[..], &records[..k]);
        prop_assert_eq!(tail, WalTail::Torn { at: s });
    }

    /// A poisoned 32-bit word *inside* a frame body — element counts
    /// included — with the CRC refreshed so the body parser (not the
    /// checksum) confronts the damage: frames before the mutation decode
    /// unchanged, and the mutated frame either still parses (the word
    /// was a benign field, and later frames are untouched) or is flagged
    /// `Corrupt`/`Torn` exactly at its boundary. Either way, no panic
    /// and no huge reservation.
    #[test]
    fn poisoned_interior_counts_never_allocate_or_panic(
        records in proptest::collection::vec(gen_record(), 1..8),
        frame_sel in any::<u64>(),
        word_sel in any::<u64>(),
        poison in (0u32..4).prop_map(|i| {
            [u32::MAX, u32::MAX - 1, i32::MAX as u32, 0xDEAD_BEEFu32][i as usize]
        }),
    ) {
        let (mut log, starts) = frames(&records);
        let k = (frame_sel % records.len() as u64) as usize;
        let s = starts[k];
        let end = starts.get(k + 1).copied().unwrap_or(log.len());
        let body = s + 8..end;
        // Every record body is at least 5 bytes (tag + one u32 field).
        let off = body.start + (word_sel % (body.len() as u64 - 3)) as usize;
        log[off..off + 4].copy_from_slice(&poison.to_le_bytes());
        let crc = crc32(&log[body.clone()]);
        log[s + 4..s + 8].copy_from_slice(&crc.to_le_bytes());

        let (decoded, tail) = decode_wal(&log);
        prop_assert!(decoded.len() >= k, "mutation in frame {} damaged the prefix", k);
        prop_assert_eq!(&decoded[..k], &records[..k]);
        if tail == WalTail::Clean {
            prop_assert_eq!(decoded.len(), records.len());
            prop_assert_eq!(&decoded[k + 1..], &records[k + 1..]);
        } else {
            prop_assert_eq!(decoded.len(), k);
            prop_assert!(
                tail == WalTail::Torn { at: s } || tail == WalTail::Corrupt { at: s },
                "damage in frame {} misattributed: {:?}", k, tail
            );
        }
    }

    /// The wire decoder's contract, for the log: whatever a mutated log
    /// decodes to re-encodes to exactly the bytes it was read from. A
    /// flipped bit or a poisoned byte (CRC refreshed, so the parser and
    /// not the checksum confronts it) is refused or lands on another
    /// canonical encoding — never on bytes that read as something else.
    #[test]
    fn every_decoded_log_prefix_re_encodes_byte_identically(
        records in proptest::collection::vec(gen_record(), 1..8),
        (frame_sel, pos_sel, bit) in (any::<u64>(), any::<u64>(), 0u32..8),
        poison in any::<bool>(),
    ) {
        let (mut log, starts) = frames(&records);
        let k = (frame_sel % records.len() as u64) as usize;
        let (s, end) = (starts[k], starts.get(k + 1).copied().unwrap_or(log.len()));
        let off = s + 8 + (pos_sel % (end - s - 8) as u64) as usize;
        if poison {
            log[off] = 0xFF;
        } else {
            log[off] ^= 1 << bit;
        }
        let crc = crc32(&log[s + 8..end]);
        log[s + 4..s + 8].copy_from_slice(&crc.to_le_bytes());

        let (decoded, tail) = decode_wal(&log);
        let valid = match tail {
            WalTail::Clean => log.len(),
            WalTail::Torn { at } | WalTail::Corrupt { at } => at,
        };
        let again: Vec<u8> = decoded.iter().flat_map(WalRecord::encode).collect();
        prop_assert_eq!(&again[..], &log[..valid]);
    }

    /// The same contract for snapshots with every list populated.
    #[test]
    fn every_decoded_snapshot_re_encodes_byte_identically(
        snap in gen_snapshot(),
        (pos_sel, bit) in (any::<u64>(), 0u32..8),
        poison in any::<bool>(),
    ) {
        let mut bytes = snap.encode();
        prop_assert_eq!(Snapshot::decode(&bytes).expect("clean round-trip"), snap);
        // magic(8) | len(4) | crc(4) | body
        let off = 16 + (pos_sel % (bytes.len() as u64 - 16)) as usize;
        if poison {
            bytes[off] = 0xFF;
        } else {
            bytes[off] ^= 1 << bit;
        }
        let crc = crc32(&bytes[16..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        if let Ok(back) = Snapshot::decode(&bytes) {
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    /// The same poisoning for snapshots: a huge header length is
    /// `Truncated`, and a poisoned interior count (CRC refreshed) is
    /// rejected as `Malformed` or decodes benignly — never a panic or an
    /// attempted allocation near the poisoned size.
    #[test]
    fn snapshot_length_field_poison_is_rejected_cleanly(
        store in proptest::collection::vec((0..8u32, -100i64..100), 1..6),
        word_sel in any::<u64>(),
        header in any::<bool>(),
        poison in (0u32..3).prop_map(|i| {
            [u32::MAX, i32::MAX as u32, 0xFFFF_0000u32][i as usize]
        }),
    ) {
        let snap = Snapshot {
            incarnation: 1,
            applied: VClock::new(3),
            store: store.into_iter().map(|(l, v)| (Loc(l), Value::Int(v), None)).collect(),
            counter_updates: vec![(Loc(0), vec![WriteId::new(ProcId(0), 1)])],
            ..Snapshot::default()
        };
        let mut bytes = snap.encode();
        if header {
            // magic(8) | len(4) | crc(4) | body
            bytes[8..12].copy_from_slice(&poison.to_le_bytes());
            prop_assert!(Snapshot::decode(&bytes).is_err(), "huge header length accepted");
        } else {
            let body = 16..bytes.len();
            let off = body.start + (word_sel % (body.len() as u64 - 3)) as usize;
            bytes[off..off + 4].copy_from_slice(&poison.to_le_bytes());
            let crc = crc32(&bytes[body.clone()]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            // Either cleanly rejected or a benign field changed — the
            // property is completing without panic or huge reservation.
            let _ = Snapshot::decode(&bytes);
        }
    }

    /// Snapshots are all-or-nothing: any single bit flip or truncation
    /// is rejected with a diagnostic, never decoded into different
    /// replica state. (The atomic tmp+rename install makes partial
    /// snapshot writes invisible; this covers media corruption.)
    #[test]
    fn snapshot_corruption_is_always_detected(
        incarnation in 0..8u32,
        store in proptest::collection::vec((0..8u32, -100i64..100), 0..6),
        pos_sel in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let snap = Snapshot {
            incarnation,
            applied: VClock::new(3),
            store: store
                .into_iter()
                .map(|(l, v)| (Loc(l), Value::Int(v), None))
                .collect(),
            ..Snapshot::default()
        };
        let mut bytes = snap.encode();
        prop_assert_eq!(Snapshot::decode(&bytes).expect("clean round-trip"), snap);

        if truncate {
            let keep = (pos_sel % bytes.len() as u64) as usize;
            prop_assert!(Snapshot::decode(&bytes[..keep]).is_err(), "truncated snapshot accepted");
        } else {
            let bit = (pos_sel % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(Snapshot::decode(&bytes).is_err(), "flipped snapshot accepted");
        }
    }
}

/// The documented recovery contract, end to end on a byte level: replay
/// the valid prefix, truncate the torn tail, refuse the corrupt frame.
#[test]
fn tail_diagnostics_carry_usable_truncation_offsets() {
    let a = WalRecord::Incarnation { incarnation: 1 }.encode();
    let b =
        WalRecord::OwnWrite { loc: Loc(0), payload: UpdatePayload::Set(Value::Int(7)), deps: None }
            .encode();

    // Torn: recovery truncates at `at` and the log is clean again.
    let mut torn = [a.clone(), b.clone()].concat();
    torn.truncate(a.len() + 3);
    let (recs, tail) = decode_wal(&torn);
    assert_eq!(recs.len(), 1);
    assert_eq!(tail, WalTail::Torn { at: a.len() });
    torn.truncate(a.len());
    assert_eq!(decode_wal(&torn).1, WalTail::Clean);

    // Corrupt: the offset names the poisoned frame for the diagnostic.
    let mut corrupt = [a.clone(), b].concat();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xff;
    let (recs, tail) = decode_wal(&corrupt);
    assert_eq!(recs.len(), 1);
    assert_eq!(tail, WalTail::Corrupt { at: a.len() });
}
