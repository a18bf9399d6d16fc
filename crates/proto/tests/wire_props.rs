//! Codec conformance: for *every* [`Msg`] variant, encode → decode is
//! the identity, and the encoded body length equals the modeled
//! [`Msg::wire_bytes`] byte for byte. The pinned-size test in `msg.rs`
//! keeps the *model* stable; this suite keeps the *codec* welded to it.
//!
//! And decoder robustness: whatever bytes arrive — arbitrary, or valid
//! frames with a bit flipped or a length changed — the reader's pair
//! `next_frame` + `decode_frame` never panics, never recurses past a
//! session wrapper and its payload, never waits on a frame longer than
//! `MAX_FRAME`, and accepts only canonical encodings (every `Ok`
//! re-encodes to the bytes it came from).

use std::sync::Arc;

use proptest::prelude::*;

use bytes::BytesMut;
use mc_model::{BarrierId, Loc, LockId, LockMode, ProcId, VClock, Value, WriteId};
use mc_proto::wire::{
    decode_frame, encode_control, encode_frame, next_frame, oversized_prefix, Control, Frame,
    WireError, FRAME_HEADER, MAX_FRAME,
};
use mc_proto::{BatchEntry, GrantInfo, Msg, UpdatePayload};

fn roundtrip(msg: &Msg) {
    let mut buf = BytesMut::with_capacity(1024);
    encode_frame(&mut buf, msg);
    prop_assert_eq!(
        buf.len() as u64,
        FRAME_HEADER as u64 + msg.wire_bytes(),
        "encoded length must equal wire_bytes for {}",
        msg.kind()
    );
    let body = next_frame(&mut buf).expect("one complete frame");
    prop_assert!(buf.is_empty());
    let Frame::Msg(decoded) = decode_frame(&body).expect("decodes cleanly") else {
        panic!("protocol frame decoded as control");
    };
    // Msg intentionally has no PartialEq (clocks of different widths
    // compare by content elsewhere); the Debug form is a faithful
    // structural fingerprint for identity here.
    prop_assert_eq!(format!("{msg:?}"), format!("{decoded:?}"));
}

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|i| Value::F64(i as f64 / 3.0)),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

fn arb_payload() -> BoxedStrategy<UpdatePayload> {
    (any::<bool>(), arb_value())
        .prop_map(|(add, v)| if add { UpdatePayload::Add(v) } else { UpdatePayload::Set(v) })
        .boxed()
}

fn arb_vclock() -> BoxedStrategy<VClock> {
    proptest::collection::vec(0u32..100_000, 0..6)
        .prop_map(|counts| {
            let mut c = VClock::new(counts.len());
            for (i, n) in counts.into_iter().enumerate() {
                c.set(ProcId(i as u32), n);
            }
            c
        })
        .boxed()
}

fn arb_writer() -> BoxedStrategy<WriteId> {
    (0u32..8, 1u32..1_000_000).prop_map(|(p, seq)| WriteId::new(ProcId(p), seq)).boxed()
}

/// Entries of a batch from `proc`: the codec reconstructs each writer
/// from the batch header, so the invariant the protocol maintains
/// (entries are own writes) must hold in generated data too.
fn arb_entries(proc: u32) -> BoxedStrategy<Arc<[BatchEntry]>> {
    proptest::collection::vec(
        (0u32..64, arb_payload(), 1u32..100_000, proptest::collection::vec(any::<u32>(), 0..4)),
        0..5,
    )
    .prop_map(move |es| {
        es.into_iter()
            .map(|(loc, payload, seq, adds)| BatchEntry {
                loc: Loc(loc),
                payload,
                writer: WriteId::new(ProcId(proc), seq),
                adds,
            })
            .collect::<Vec<_>>()
            .into()
    })
    .boxed()
}

fn arb_triples() -> BoxedStrategy<Vec<(u32, ProcId, u32)>> {
    proptest::collection::vec((any::<u32>(), 0u32..8, any::<u32>()), 0..5)
        .prop_map(|ts| ts.into_iter().map(|(s, p, q)| (s, ProcId(p), q)).collect())
        .boxed()
}

fn arb_delta() -> BoxedStrategy<Option<Vec<(ProcId, u32)>>> {
    (any::<bool>(), proptest::collection::vec((0u32..8, any::<u32>()), 0..5))
        .prop_map(|(some, d)| some.then(|| d.into_iter().map(|(p, c)| (ProcId(p), c)).collect()))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn update_roundtrips(
        writer in arb_writer(),
        loc in 0u32..1024,
        payload in arb_payload(),
        deps in (any::<bool>(), arb_vclock()),
    ) {
        let deps = deps.0.then_some(deps.1);
        roundtrip(&Msg::Update { writer, loc: Loc(loc), payload, deps });
    }

    #[test]
    fn update_batch_roundtrips(
        proc in 0u32..8,
        seqs in (1u32..1000, 0u32..1000),
        entries_seed in 0u32..8,
        delta in arb_delta(),
        ack in (any::<bool>(), any::<u64>(), 0u64..u64::MAX),
    ) {
        let entries = {
            let mut rng = proptest::test_rng(entries_seed);
            arb_entries(proc).generate(&mut rng)
        };
        let ack = ack.0.then_some((ack.1 & ((1 << 56) - 1), ack.2));
        roundtrip(&Msg::UpdateBatch {
            proc: ProcId(proc),
            first_seq: seqs.0,
            upto: seqs.0 + seqs.1,
            entries,
            delta,
            ack,
        });
    }

    #[test]
    fn sync_messages_roundtrip(
        proc in 0u32..8,
        obj in 0u32..64,
        n in 0u32..100_000,
        write_mode in any::<bool>(),
        knowledge in arb_vclock(),
    ) {
        let mode = if write_mode { LockMode::Write } else { LockMode::Read };
        roundtrip(&Msg::Flush { from_proc: ProcId(proc), upto: n });
        roundtrip(&Msg::FlushAck);
        roundtrip(&Msg::LockReq { proc: ProcId(proc), lock: LockId(obj), mode });
        roundtrip(&Msg::LockRel {
            proc: ProcId(proc),
            lock: LockId(obj),
            mode,
            knowledge: knowledge.clone(),
            own_count: n,
            dirty: vec![(Loc(obj), n), (Loc(obj + 1), n / 2)],
        });
        roundtrip(&Msg::BarrierArrive {
            proc: ProcId(proc),
            barrier: BarrierId(obj),
            round: n,
            knowledge: knowledge.clone(),
        });
        roundtrip(&Msg::BarrierRelease { barrier: BarrierId(obj), round: n, knowledge });
    }

    #[test]
    fn lock_grant_roundtrips(
        obj in 0u32..64,
        knowledge in arb_vclock(),
        preds in proptest::collection::vec((0u32..8, any::<u32>()), 0..4),
        demand in proptest::collection::vec((0u32..64, 0u32..8, any::<u32>()), 0..4),
    ) {
        let grant = GrantInfo {
            knowledge,
            preds: preds.into_iter().map(|(p, c)| (ProcId(p), c)).collect(),
            demand: demand.into_iter().map(|(l, p, s)| (Loc(l), ProcId(p), s)).collect(),
        };
        roundtrip(&Msg::LockGrant { lock: LockId(obj), grant });
    }

    #[test]
    fn sc_messages_roundtrip(
        proc in 0u32..8,
        loc in 0u32..64,
        value in arb_value(),
        writer in arb_writer(),
        with_writer in any::<bool>(),
    ) {
        roundtrip(&Msg::ScRead { proc: ProcId(proc), loc: Loc(loc) });
        roundtrip(&Msg::ScReadResp {
            value,
            writer: with_writer.then_some(writer),
        });
        roundtrip(&Msg::ScWrite {
            writer,
            loc: Loc(loc),
            payload: UpdatePayload::Set(value),
        });
        roundtrip(&Msg::ScWriteAck);
        roundtrip(&Msg::ScAwait { proc: ProcId(proc), loc: Loc(loc), value });
        roundtrip(&Msg::ScAwaitResp { value, writers: vec![writer, writer] });
    }

    #[test]
    fn session_messages_roundtrip(
        seq in 0u64..(1 << 56),
        epoch in any::<u64>(),
        proc in 0u32..8,
        upto in any::<u32>(),
    ) {
        roundtrip(&Msg::SessAck { upto: seq, epoch });
        // The wrapper nests an arbitrary payload; a batch exercises the
        // recursive self-delimiting decode hardest.
        let inner = Msg::Flush { from_proc: ProcId(proc), upto };
        roundtrip(&Msg::SessData { seq, epoch, inner: Box::new(inner) });
    }

    #[test]
    fn recovery_messages_roundtrip(
        proc in 0u32..8,
        incarnation in any::<u32>(),
        applied in arb_vclock(),
        entries_seed in 0u32..8,
        deps in (any::<bool>(), arb_vclock()),
    ) {
        roundtrip(&Msg::RecoverReq { proc: ProcId(proc), incarnation, applied });
        let entries = {
            let mut rng = proptest::test_rng(entries_seed);
            arb_entries(proc).generate(&mut rng)
        };
        roundtrip(&Msg::RecoverResp {
            proc: ProcId(proc),
            first_seq: incarnation / 2,
            upto: incarnation,
            entries: entries.to_vec(),
            deps: deps.0.then_some(deps.1),
            seen: incarnation / 3,
        });
    }

    #[test]
    fn shard_messages_roundtrip(
        proc in 0u32..8,
        shard in 0u32..16,
        writer in arb_writer(),
        payload in arb_payload(),
        deps in arb_triples(),
        entries_seed in 0u32..8,
        counts in (0u32..1000, 0u32..1000, 0u32..1000),
    ) {
        let (prev, upto, seen) = counts;
        roundtrip(&Msg::ShardUpdate { writer, loc: Loc(shard), payload, prev, deps: deps.clone() });
        let entries = {
            let mut rng = proptest::test_rng(entries_seed);
            arb_entries(proc).generate(&mut rng)
        };
        roundtrip(&Msg::ShardUpdateBatch {
            proc: ProcId(proc),
            shard,
            prev,
            upto,
            entries: entries.clone(),
            deps: deps.clone(),
        });
        roundtrip(&Msg::SubReq { proc: ProcId(proc), shard });
        roundtrip(&Msg::SubAck { shard, subs: vec![ProcId(proc), ProcId(proc + 1)] });
        roundtrip(&Msg::SubNotify { shard, proc: ProcId(proc) });
        roundtrip(&Msg::ShardRecoverReq {
            proc: ProcId(proc),
            incarnation: upto,
            applied: deps.clone(),
        });
        roundtrip(&Msg::ShardRecoverResp {
            proc: ProcId(proc),
            shard,
            prev,
            upto,
            entries: entries.to_vec(),
            deps,
            seen,
        });
    }
}

/// One valid frame (prefix included) of every `Msg` variant and every
/// control frame, with field values drawn from `seed`.
fn sample_frames(seed: u32) -> Vec<Vec<u8>> {
    let rng = &mut proptest::test_rng(seed);
    let proc = ProcId(seed % 8);
    let (writer, payload, value) =
        (arb_writer().generate(rng), arb_payload().generate(rng), arb_value().generate(rng));
    let (clock, triples) = (arb_vclock().generate(rng), arb_triples().generate(rng));
    let entries = arb_entries(proc.0).generate(rng);
    let (loc, lock, n) = (Loc(seed % 64), LockId(seed % 16), seed.wrapping_mul(2654435761));
    let flush = Msg::Flush { from_proc: proc, upto: n };
    let grant = GrantInfo {
        knowledge: clock.clone(),
        preds: vec![(proc, n)],
        demand: vec![(loc, proc, n)],
    };
    let msgs = vec![
        Msg::Update { writer, loc, payload: payload.clone(), deps: Some(clock.clone()) },
        Msg::UpdateBatch {
            proc,
            first_seq: 1,
            upto: n,
            entries: entries.clone(),
            delta: arb_delta().generate(rng),
            ack: Some((u64::from(n), 7)),
        },
        flush.clone(),
        Msg::FlushAck,
        Msg::LockReq { proc, lock, mode: LockMode::Write },
        Msg::LockGrant { lock, grant },
        Msg::LockRel {
            proc,
            lock,
            mode: LockMode::Read,
            knowledge: clock.clone(),
            own_count: n,
            dirty: vec![(loc, n)],
        },
        Msg::BarrierArrive { proc, barrier: BarrierId(1), round: n, knowledge: clock.clone() },
        Msg::BarrierRelease { barrier: BarrierId(1), round: n, knowledge: clock.clone() },
        Msg::ScRead { proc, loc },
        Msg::ScReadResp { value, writer: Some(writer) },
        Msg::ScWrite { writer, loc, payload: payload.clone() },
        Msg::ScWriteAck,
        Msg::ScAwait { proc, loc, value },
        Msg::ScAwaitResp { value, writers: vec![writer] },
        Msg::SessData { seq: u64::from(n), epoch: 1 << 32, inner: Box::new(flush) },
        Msg::SessAck { upto: u64::from(n), epoch: 1 << 32 },
        Msg::RecoverReq { proc, incarnation: n, applied: clock.clone() },
        Msg::RecoverResp {
            proc,
            first_seq: 1,
            upto: n,
            entries: entries.to_vec(),
            deps: Some(clock),
            seen: n,
        },
        Msg::ShardUpdate { writer, loc, payload, prev: n, deps: triples.clone() },
        Msg::ShardUpdateBatch {
            proc,
            shard: 3,
            prev: 1,
            upto: n,
            entries: entries.clone(),
            deps: triples.clone(),
        },
        Msg::SubReq { proc, shard: 3 },
        Msg::SubAck { shard: 3, subs: vec![proc] },
        Msg::SubNotify { shard: 3, proc },
        Msg::ShardRecoverReq { proc, incarnation: n, applied: triples.clone() },
        Msg::ShardRecoverResp {
            proc,
            shard: 3,
            prev: 1,
            upto: n,
            entries: entries.to_vec(),
            deps: triples,
            seen: n,
        },
    ];
    assert_eq!(msgs.len(), 26, "one sample per Msg variant");
    let mut frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut buf = BytesMut::with_capacity(256);
            encode_frame(&mut buf, m);
            buf.to_vec()
        })
        .collect();
    for ctrl in [Control::Hello { node: seed }, Control::Shutdown, Control::Done { proc: seed }] {
        let mut buf = BytesMut::with_capacity(16);
        encode_control(&mut buf, &ctrl);
        frames.push(buf.to_vec());
    }
    frames
}

/// What `read_link` does with bytes off a socket, plus the properties:
/// returns how many frames decoded.
fn read_like_the_transport(bytes: &[u8]) -> usize {
    let mut buf = BytesMut::with_capacity(bytes.len().max(1));
    buf.put_slice(bytes);
    let mut decoded = 0;
    while let Some(body) = next_frame(&mut buf) {
        prop_assert!(body.len() <= MAX_FRAME);
        let Ok(frame) = decode_frame(&body) else { continue };
        decoded += 1;
        let mut again = BytesMut::with_capacity(body.len() + FRAME_HEADER);
        match &frame {
            Frame::Msg(msg) => {
                if let Msg::SessData { inner, .. } = msg {
                    prop_assert!(!matches!(**inner, Msg::SessData { .. }), "decoder depth over 2");
                }
                encode_frame(&mut again, msg);
            }
            Frame::Control(ctrl) => encode_control(&mut again, ctrl),
        }
        prop_assert_eq!(&again[FRAME_HEADER..], &body[..], "an accepted frame is canonical");
    }
    // What is left is at most one incomplete frame. Either the reader
    // drops the connection over its header, or the wait is bounded.
    prop_assert!(oversized_prefix(&buf) || buf.len() < FRAME_HEADER + MAX_FRAME);
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
        len in 0u32..160,
    ) {
        read_like_the_transport(&bytes);
        // The same noise behind a plausible header gets past `next_frame`.
        let mut framed = len.to_le_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        read_like_the_transport(&framed);
    }

    #[test]
    fn mutated_frames_never_panic_the_reader(
        seed in any::<u32>(),
        pick in any::<usize>(),
        (op, at, bit, len) in (0u32..4, any::<usize>(), 0u32..8, any::<u32>()),
    ) {
        let frames = sample_frames(seed);
        let mut frame = frames[pick % frames.len()].clone();
        prop_assert_eq!(read_like_the_transport(&frame), 1, "the sample itself is valid");
        let at = at % frame.len();
        match op {
            0 => frame[at] ^= 1 << bit,
            1 => frame.truncate(at),
            2 => frame.extend_from_slice(&len.to_le_bytes()),
            _ => frame[..FRAME_HEADER].copy_from_slice(&len.to_le_bytes()),
        }
        // Followed by an intact frame, as on a live connection.
        frame.extend_from_slice(&frames[0]);
        read_like_the_transport(&frame);
    }
}

/// A frame of back-to-back session headers used to recurse once per
/// header: a megabyte of them overflowed the reader's stack.
#[test]
fn nested_session_headers_are_an_error_not_a_stack_overflow() {
    let inner = Msg::Flush { from_proc: ProcId(0), upto: 1 };
    let mut one = BytesMut::with_capacity(64);
    encode_frame(&mut one, &Msg::SessData { seq: 1, epoch: 0, inner: Box::new(inner) });
    let header = one[FRAME_HEADER..FRAME_HEADER + 16].to_vec();
    let mut body = Vec::new();
    for _ in 0..(MAX_FRAME / 16) {
        body.extend_from_slice(&header);
    }
    assert_eq!(decode_frame(&body).err(), Some(WireError::NestedSession));
}

/// One hostile header must not make a reader buffer toward 4 GiB.
#[test]
fn an_oversized_prefix_is_flagged_before_any_body_arrives() {
    let mut buf = BytesMut::with_capacity(16);
    buf.put_slice(&u32::MAX.to_le_bytes());
    assert!(next_frame(&mut buf).is_none());
    assert!(oversized_prefix(&buf));
    let mut ok = BytesMut::with_capacity(16);
    ok.put_slice(&(MAX_FRAME as u32).to_le_bytes());
    assert!(!oversized_prefix(&ok), "MAX_FRAME itself is allowed");
    assert!(!oversized_prefix(&[0xFF; 3]), "an incomplete header is not judged");
}

/// Every `Msg` variant must appear in exactly one roundtrip test above —
/// this canary breaks when a variant is added without codec coverage.
#[test]
fn all_variants_covered() {
    let covered = [
        "update",
        "update_batch",
        "flush",
        "flush_ack",
        "lock_req",
        "lock_grant",
        "lock_rel",
        "barrier_arrive",
        "barrier_release",
        "sc_read",
        "sc_read_resp",
        "sc_write",
        "sc_write_ack",
        "sc_await",
        "sc_await_resp",
        "sess_data",
        "session_ack",
        "recover_req",
        "recover_resp",
        "shard_update",
        "shard_update_batch",
        "sub_req",
        "sub_ack",
        "sub_notify",
        "shard_recover_req",
        "shard_recover_resp",
    ];
    assert_eq!(covered.len(), 26, "one entry per Msg variant");
}
