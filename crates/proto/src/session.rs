//! A reliable-delivery session layer restoring the paper's channel
//! assumptions over a faulty network.
//!
//! Section 6 of the paper *assumes* "a message passing system with FIFO
//! communication channels". The simulator's [`FaultPlan`] can drop,
//! duplicate, and reorder messages, partition node sets, and crash nodes
//! — under which the raw protocols are unsound (PRAM's apply-on-receipt
//! regresses, awaits deadlock). This module *earns* the assumption back,
//! the way a real LAN stack would, with a per-directed-link session:
//!
//! * every payload is wrapped in [`Msg::SessData`](crate::Msg::SessData)
//!   carrying a per-link sequence number;
//! * the receiver delivers strictly in sequence order (buffering
//!   out-of-order arrivals, discarding duplicates) and answers with
//!   cumulative [`Msg::SessAck`](crate::Msg::SessAck)s;
//! * the sender keeps unacknowledged payloads and retransmits them on a
//!   timer with exponential backoff, capped at
//!   [`SessionConfig::max_rto`].
//!
//! The state machines here are *pure* (no I/O): [`LinkSender`] and
//! [`LinkReceiver`] compute what to transmit and what to deliver, and
//! each node's link glue in [`crate::node`] performs the sends through
//! its executor (simulator timers, or wall-clock ticks in the live
//! executors). The memory protocols above the session —
//! [`Replica`](crate::Replica), [`Manager`](crate::Manager) — are
//! unchanged: they see exactly the FIFO channels the paper assumed.
//!
//! [`FaultPlan`]: mc_sim::FaultPlan

use std::collections::{BTreeMap, HashMap};

use mc_sim::{NodeId, SimTime};

use crate::msg::Msg;

/// Retransmission tuning of the session layer.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Initial retransmission timeout; should exceed one round trip.
    pub initial_rto: SimTime,
    /// Backoff cap: the timeout doubles per expiry up to this bound.
    pub max_rto: SimTime,
}

impl Default for SessionConfig {
    /// 50µs initial timeout (several LAN round trips), 800µs cap.
    fn default() -> Self {
        SessionConfig { initial_rto: SimTime::from_micros(50), max_rto: SimTime::from_micros(800) }
    }
}

/// Encodes the directed link `from → to` as a timer token.
pub fn link_token(from: NodeId, to: NodeId) -> u64 {
    ((from.0 as u64) << 32) | to.0 as u64
}

/// Decodes a [`link_token`] back into `(from, to)`.
pub fn token_link(token: u64) -> (NodeId, NodeId) {
    (NodeId((token >> 32) as u32), NodeId(token as u32))
}

/// Sender half of one directed link: assigns sequence numbers, tracks
/// unacknowledged payloads, and computes retransmissions.
#[derive(Debug)]
pub struct LinkSender {
    next_seq: u64,
    /// The link epoch this sender transmits in: high 32 bits the
    /// sender's persisted incarnation, low 32 bits a volatile reset
    /// counter. Acks from any other epoch are ignored.
    epoch: u64,
    unacked: BTreeMap<u64, Msg>,
    /// Highest cumulative acknowledgement seen (the watermark deciding
    /// whether an ack is new information).
    acked_upto: u64,
    rto: SimTime,
    /// Whether a retransmission timer is currently scheduled for this
    /// link. Maintained by the glue: timers cannot be cancelled, so a
    /// timer that expires with nothing unacknowledged clears the flag
    /// instead of re-arming.
    pub timer_armed: bool,
}

impl LinkSender {
    /// A fresh sender with the configured initial timeout, transmitting
    /// in epoch `epoch`.
    pub fn new(cfg: &SessionConfig, epoch: u64) -> Self {
        LinkSender {
            next_seq: 0,
            epoch,
            unacked: BTreeMap::new(),
            acked_upto: 0,
            rto: cfg.initial_rto,
            timer_armed: false,
        }
    }

    /// Wraps `inner` as the next in-sequence payload, retaining a copy
    /// for retransmission. Returns the wire message.
    pub fn wrap(&mut self, inner: Msg) -> Msg {
        self.next_seq += 1;
        self.unacked.insert(self.next_seq, inner.clone());
        Msg::SessData { seq: self.next_seq, epoch: self.epoch, inner: Box::new(inner) }
    }

    /// The epoch this sender transmits in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Handles a cumulative acknowledgement: everything up to `upto` is
    /// delivered. Stale and duplicated acks are harmless. An ack from a
    /// different epoch is ignored outright — a cumulative ack earned by
    /// a pre-crash incarnation says nothing about what the reborn link
    /// has delivered. The backoff is reset **only when the cumulative
    /// watermark advances** — a duplicated or reordered copy of an old
    /// ack acknowledges nothing new and must not defeat exponential
    /// backoff under a reorder-heavy fault plan.
    pub fn on_ack(&mut self, upto: u64, epoch: u64, cfg: &SessionConfig) {
        if epoch != self.epoch {
            return;
        }
        self.unacked.retain(|&seq, _| seq > upto);
        if upto > self.acked_upto {
            self.acked_upto = upto;
            self.rto = cfg.initial_rto;
        }
    }

    /// Handles a retransmission-timer expiry: returns every
    /// unacknowledged `(seq, payload)` to put back on the wire and
    /// doubles the timeout (capped). Empty when nothing is outstanding —
    /// the glue then lets the timer lapse.
    pub fn on_timeout(&mut self, cfg: &SessionConfig) -> Vec<(u64, Msg)> {
        if self.unacked.is_empty() {
            return Vec::new();
        }
        let doubled = SimTime::from_nanos(self.rto.as_nanos().saturating_mul(2));
        self.rto = doubled.min(cfg.max_rto);
        self.unacked.iter().map(|(&s, m)| (s, m.clone())).collect()
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> SimTime {
        self.rto
    }

    /// The highest cumulative acknowledgement received so far.
    pub fn acked_upto(&self) -> u64 {
        self.acked_upto
    }

    /// Whether any payload awaits acknowledgement.
    pub fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// Number of payloads awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }
}

/// Receiver half of one directed link: delivers in sequence order,
/// buffers the future, discards the past, and computes cumulative acks.
#[derive(Debug, Default)]
pub struct LinkReceiver {
    delivered: u64,
    /// The highest link epoch seen. Data from a higher epoch resets the
    /// link (the sender was reborn or reset); data from a lower epoch is
    /// a ghost of a dead incarnation and is dropped.
    epoch: u64,
    buffer: BTreeMap<u64, Msg>,
}

impl LinkReceiver {
    /// A fresh receiver expecting sequence number 1 in epoch 0.
    pub fn new() -> Self {
        LinkReceiver::default()
    }

    /// Handles an arriving `SessData { seq, epoch, inner }`. Returns the
    /// payloads now deliverable **in order** plus the cumulative ack to
    /// answer with (always in the receiver's *current* epoch). A
    /// duplicate (or an already-buffered future sequence number)
    /// delivers nothing but still elicits a (re-)ack so the sender's
    /// state catches up even when earlier acks were lost. A higher
    /// epoch resets the link — delivery restarts from sequence 1;
    /// stale-epoch data is ignored entirely.
    pub fn on_data(&mut self, seq: u64, epoch: u64, inner: Msg) -> (Vec<Msg>, u64) {
        if epoch < self.epoch {
            return (Vec::new(), self.delivered);
        }
        if epoch > self.epoch {
            self.epoch = epoch;
            self.delivered = 0;
            self.buffer.clear();
        }
        if seq > self.delivered {
            self.buffer.entry(seq).or_insert(inner);
        }
        let mut ready = Vec::new();
        while let Some(m) = self.buffer.remove(&(self.delivered + 1)) {
            self.delivered += 1;
            ready.push(m);
        }
        (ready, self.delivered)
    }

    /// The highest sequence number delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The current link epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of out-of-order payloads buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }
}

/// Session state for every directed link of one protocol instance.
#[derive(Debug)]
pub struct Session {
    /// Retransmission tuning.
    pub cfg: SessionConfig,
    senders: HashMap<(NodeId, NodeId), LinkSender>,
    receivers: HashMap<(NodeId, NodeId), LinkReceiver>,
    /// Base epoch per sending node: `incarnation << 32`. New and reset
    /// senders of that node never transmit below their base, which
    /// makes link epochs strictly monotone across crashes.
    base_epochs: HashMap<NodeId, u64>,
}

impl Session {
    /// A fresh session over zero links (links materialize on first use).
    pub fn new(cfg: SessionConfig) -> Self {
        Session {
            cfg,
            senders: HashMap::new(),
            receivers: HashMap::new(),
            base_epochs: HashMap::new(),
        }
    }

    /// Installs `node`'s persisted incarnation: senders from `node`
    /// created or reset from now on transmit in epoch
    /// `incarnation << 32` or higher.
    pub fn set_base_epoch(&mut self, node: NodeId, incarnation: u32) {
        self.base_epochs.insert(node, (incarnation as u64) << 32);
    }

    /// The base epoch of `node` (0 when never crashed).
    pub fn base_epoch(&self, node: NodeId) -> u64 {
        self.base_epochs.get(&node).copied().unwrap_or(0)
    }

    /// One-line link-state dump (diagnostics only).
    pub fn debug_links(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for ((f, t), s) in &self.senders {
            let _ = write!(
                out,
                "snd {f}->{t} ep={} next={} unacked={} acked={}; ",
                s.epoch,
                s.next_seq,
                s.unacked.len(),
                s.acked_upto
            );
        }
        for ((f, t), r) in &self.receivers {
            let _ = write!(
                out,
                "rcv {f}->{t} ep={} dlv={} buf={}; ",
                r.epoch,
                r.delivered,
                r.buffer.len()
            );
        }
        out
    }

    /// The sender state of the directed link `from → to`.
    pub fn sender(&mut self, from: NodeId, to: NodeId) -> &mut LinkSender {
        let cfg = self.cfg;
        let base = self.base_epoch(from);
        self.senders.entry((from, to)).or_insert_with(|| LinkSender::new(&cfg, base))
    }

    /// Resets the sender of the directed link `from → to` into a fresh,
    /// strictly higher epoch (at least `from`'s base epoch) and re-wraps
    /// every unacknowledged payload with fresh sequence numbers. Returns
    /// the wire messages to retransmit — called when the *receiving*
    /// node is reborn and its old delivery watermark is void.
    pub fn reset_sender(&mut self, from: NodeId, to: NodeId) -> Vec<Msg> {
        self.reset_sender_with(from, to, |_| true)
    }

    /// [`Session::reset_sender`] with a retention filter: unacknowledged
    /// payloads failing `keep` are dropped instead of re-wrapped. The
    /// recovery glue uses this to drop update-class payloads toward a
    /// reborn node (their content travels in the recovery delta instead,
    /// with fresh dependency vectors) while keeping everything else.
    pub fn reset_sender_with(
        &mut self,
        from: NodeId,
        to: NodeId,
        keep: impl Fn(&Msg) -> bool,
    ) -> Vec<Msg> {
        let cfg = self.cfg;
        let base = self.base_epoch(from);
        let old = self.senders.remove(&(from, to));
        let epoch = match &old {
            Some(s) => (s.epoch + 1).max(base),
            None => base,
        };
        let mut fresh = LinkSender::new(&cfg, epoch);
        let mut wire = Vec::new();
        if let Some(old) = old {
            for (_, inner) in old.unacked {
                if keep(&inner) {
                    wire.push(fresh.wrap(inner));
                }
            }
        }
        self.senders.insert((from, to), fresh);
        wire
    }

    /// The receiver state of the directed link `from → to`.
    pub fn receiver(&mut self, from: NodeId, to: NodeId) -> &mut LinkReceiver {
        self.receivers.entry((from, to)).or_default()
    }

    /// Total unacknowledged payloads across all links (zero once the
    /// session has fully drained).
    pub fn total_unacked(&self) -> usize {
        self.senders.values().map(|s| s.unacked_len()).sum()
    }

    /// Iterates mutably over every sender link with its `(from, to)`
    /// identity — for glue that retransmits on wall-clock ticks (the live
    /// executor) rather than per-link simulator timers.
    pub fn senders_mut(&mut self) -> impl Iterator<Item = ((NodeId, NodeId), &mut LinkSender)> {
        self.senders.iter_mut().map(|(&k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::{Loc, ProcId, Value, WriteId};

    use crate::msg::UpdatePayload;

    fn payload(v: i64) -> Msg {
        Msg::Update {
            writer: WriteId::new(ProcId(0), v as u32),
            loc: Loc(0),
            payload: UpdatePayload::Set(Value::Int(v)),
            deps: None,
        }
    }

    fn val(m: &Msg) -> i64 {
        match m {
            Msg::Update { payload: UpdatePayload::Set(Value::Int(v)), .. } => *v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_order_delivery_is_immediate() {
        let cfg = SessionConfig::default();
        let mut tx = LinkSender::new(&cfg, 0);
        let mut rx = LinkReceiver::new();
        for i in 1..=3 {
            let Msg::SessData { seq, epoch, inner } = tx.wrap(payload(i)) else { panic!() };
            let (ready, upto) = rx.on_data(seq, epoch, *inner);
            assert_eq!(ready.len(), 1);
            assert_eq!(val(&ready[0]), i);
            assert_eq!(upto, i as u64);
            tx.on_ack(upto, 0, &cfg);
        }
        assert!(!tx.has_unacked());
    }

    #[test]
    fn out_of_order_is_buffered_then_released_in_order() {
        let mut rx = LinkReceiver::new();
        let (ready, upto) = rx.on_data(3, 0, payload(3));
        assert!(ready.is_empty());
        assert_eq!(upto, 0, "nothing deliverable yet");
        assert_eq!(rx.buffered_len(), 1);
        let (ready, upto) = rx.on_data(1, 0, payload(1));
        assert_eq!(ready.iter().map(val).collect::<Vec<_>>(), vec![1]);
        assert_eq!(upto, 1);
        let (ready, upto) = rx.on_data(2, 0, payload(2));
        assert_eq!(ready.iter().map(val).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(upto, 3);
        assert_eq!(rx.buffered_len(), 0);
    }

    #[test]
    fn duplicates_are_suppressed_but_reacked() {
        let mut rx = LinkReceiver::new();
        let (ready, _) = rx.on_data(1, 0, payload(1));
        assert_eq!(ready.len(), 1);
        // The same sequence number again: no delivery, but a re-ack that
        // lets the sender recover from a lost ack.
        let (ready, upto) = rx.on_data(1, 0, payload(1));
        assert!(ready.is_empty());
        assert_eq!(upto, 1);
        // A duplicated *future* message is buffered only once.
        rx.on_data(3, 0, payload(3));
        rx.on_data(3, 0, payload(3));
        assert_eq!(rx.buffered_len(), 1);
        let (ready, _) = rx.on_data(2, 0, payload(2));
        assert_eq!(ready.iter().map(val).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn lost_message_is_retransmitted_until_acked() {
        let cfg = SessionConfig::default();
        let mut tx = LinkSender::new(&cfg, 0);
        let mut rx = LinkReceiver::new();
        let _lost = tx.wrap(payload(1)); // never arrives
        assert!(tx.has_unacked());
        // First expiry: retransmit, backoff doubles.
        let rexmit = tx.on_timeout(&cfg);
        assert_eq!(rexmit.len(), 1);
        assert_eq!(tx.rto(), SimTime::from_micros(100));
        // The retransmission (also lost); second expiry doubles again.
        let rexmit = tx.on_timeout(&cfg);
        assert_eq!(rexmit.len(), 1);
        assert_eq!(tx.rto(), SimTime::from_micros(200));
        // Third copy arrives.
        let (seq, m) = rexmit.into_iter().next().unwrap();
        let (ready, upto) = rx.on_data(seq, 0, m);
        assert_eq!(ready.len(), 1);
        tx.on_ack(upto, 0, &cfg);
        assert!(!tx.has_unacked());
        assert_eq!(tx.rto(), cfg.initial_rto, "ack resets the backoff");
        assert!(tx.on_timeout(&cfg).is_empty(), "nothing left to retransmit");
    }

    #[test]
    fn backoff_caps_at_max_rto() {
        let cfg = SessionConfig {
            initial_rto: SimTime::from_micros(50),
            max_rto: SimTime::from_micros(300),
        };
        let mut tx = LinkSender::new(&cfg, 0);
        tx.wrap(payload(1));
        for _ in 0..10 {
            tx.on_timeout(&cfg);
        }
        assert_eq!(tx.rto(), SimTime::from_micros(300));
    }

    #[test]
    fn duplicated_ack_is_idempotent() {
        let cfg = SessionConfig::default();
        let mut tx = LinkSender::new(&cfg, 0);
        tx.wrap(payload(1));
        tx.wrap(payload(2));
        tx.on_ack(1, 0, &cfg);
        assert_eq!(tx.unacked_len(), 1);
        // The network duplicates the ack: no further effect.
        tx.on_ack(1, 0, &cfg);
        assert_eq!(tx.unacked_len(), 1);
        // A stale ack after a newer one: no effect either.
        tx.on_ack(2, 0, &cfg);
        tx.on_ack(1, 0, &cfg);
        assert!(!tx.has_unacked());
    }

    #[test]
    fn stale_ack_does_not_reset_backoff() {
        let cfg = SessionConfig::default();
        let mut tx = LinkSender::new(&cfg, 0);
        tx.wrap(payload(1));
        tx.on_ack(1, 0, &cfg);
        tx.wrap(payload(2));
        tx.on_timeout(&cfg);
        let backed_off = tx.rto();
        assert!(backed_off > cfg.initial_rto);
        // A duplicate of the *old* ack acknowledges nothing new.
        tx.on_ack(1, 0, &cfg);
        assert_eq!(tx.rto(), backed_off);
    }

    #[test]
    fn duplicate_cumulative_ack_under_backoff_does_not_reset_rto() {
        // Regression: the backoff reset used to key off "the unacked set
        // shrank"; it must key off "the cumulative watermark advanced".
        let cfg = SessionConfig::default();
        let mut tx = LinkSender::new(&cfg, 0);
        tx.wrap(payload(1));
        tx.wrap(payload(2));
        tx.on_ack(1, 0, &cfg);
        assert_eq!(tx.acked_upto(), 1);
        assert_eq!(tx.rto(), cfg.initial_rto, "advancing ack resets");
        // Seq 2 keeps timing out; backoff builds up.
        tx.on_timeout(&cfg);
        tx.on_timeout(&cfg);
        let backed_off = tx.rto();
        assert_eq!(backed_off, SimTime::from_micros(200));
        // The network replays the old cumulative ack: nothing new is
        // acknowledged, so the built-up backoff must survive.
        tx.on_ack(1, 0, &cfg);
        tx.on_ack(0, 0, &cfg);
        assert_eq!(tx.rto(), backed_off, "duplicate ack must not reset backoff");
        assert_eq!(tx.acked_upto(), 1);
        // Only the ack that finally covers seq 2 resets it.
        tx.on_ack(2, 0, &cfg);
        assert_eq!(tx.acked_upto(), 2);
        assert_eq!(tx.rto(), cfg.initial_rto);
        assert!(!tx.has_unacked());
    }

    #[test]
    fn stale_epoch_ack_cannot_advance_reborn_watermark() {
        // Regression (the restarted-live-replica bug): a cumulative ack
        // earned by the pre-crash incarnation must not make the reborn
        // sender believe its fresh payloads were delivered.
        let cfg = SessionConfig::default();
        let mut s = Session::new(cfg);
        let (a, b) = (NodeId(0), NodeId(1));
        s.sender(a, b).wrap(payload(1));
        s.sender(a, b).wrap(payload(2));
        let old_epoch = s.sender(a, b).epoch();
        // The receiver delivered both; its ack (upto=2, old epoch) is
        // still in flight when `a` crashes and recovers as incarnation 1.
        s.set_base_epoch(a, 1);
        let rewrapped = s.reset_sender(a, b);
        assert_eq!(rewrapped.len(), 2, "unacked payloads are re-wrapped");
        let new_epoch = s.sender(a, b).epoch();
        assert_eq!(new_epoch, 1 << 32);
        assert!(new_epoch > old_epoch);
        // The ghost ack arrives: ignored wholesale.
        s.sender(a, b).on_ack(2, old_epoch, &cfg);
        assert_eq!(s.sender(a, b).acked_upto(), 0);
        assert_eq!(s.sender(a, b).unacked_len(), 2);
        // Only an ack in the reborn epoch counts.
        s.sender(a, b).on_ack(2, new_epoch, &cfg);
        assert_eq!(s.sender(a, b).acked_upto(), 2);
        assert!(!s.sender(a, b).has_unacked());
    }

    #[test]
    fn receiver_resets_on_higher_epoch_and_drops_ghosts() {
        let mut rx = LinkReceiver::new();
        let (ready, _) = rx.on_data(1, 0, payload(1));
        assert_eq!(ready.len(), 1);
        let (ready, _) = rx.on_data(2, 0, payload(2));
        assert_eq!(ready.len(), 1);
        // The sender resets into epoch 1: sequence numbering restarts.
        let (ready, upto) = rx.on_data(1, 1, payload(10));
        assert_eq!(ready.iter().map(val).collect::<Vec<_>>(), vec![10]);
        assert_eq!(upto, 1, "delivery watermark restarted with the epoch");
        assert_eq!(rx.epoch(), 1);
        // A ghost of the dead epoch (a reordered duplicate): dropped,
        // and the re-ack reflects the *current* epoch's watermark.
        let (ready, upto) = rx.on_data(2, 0, payload(2));
        assert!(ready.is_empty());
        assert_eq!(upto, 1);
    }

    #[test]
    fn reset_sender_rewraps_in_order_and_bumps_within_incarnation() {
        let mut s = Session::new(SessionConfig::default());
        let (a, b) = (NodeId(0), NodeId(1));
        s.sender(a, b).wrap(payload(1));
        s.sender(a, b).wrap(payload(2));
        let cfg = s.cfg;
        s.sender(a, b).on_ack(1, 0, &cfg);
        // Reset without an incarnation bump (receiver reborn, sender
        // alive): the volatile low bits advance.
        let wire = s.reset_sender(a, b);
        assert_eq!(s.sender(a, b).epoch(), 1);
        assert_eq!(wire.len(), 1, "only the unacked payload is re-wrapped");
        let Msg::SessData { seq, epoch, inner } = &wire[0] else { panic!() };
        assert_eq!((*seq, *epoch), (1, 1), "fresh sequence numbering");
        assert_eq!(val(inner), 2);
        // A later incarnation bump dominates the volatile counter.
        s.set_base_epoch(a, 2);
        s.reset_sender(a, b);
        assert_eq!(s.sender(a, b).epoch(), 2 << 32);
    }

    #[test]
    fn token_roundtrip() {
        let (a, b) = (NodeId(3), NodeId(900));
        assert_eq!(token_link(link_token(a, b)), (a, b));
        assert_ne!(link_token(a, b), link_token(b, a));
    }

    #[test]
    fn session_tracks_links_independently() {
        let mut s = Session::new(SessionConfig::default());
        s.sender(NodeId(0), NodeId(1)).wrap(payload(1));
        s.sender(NodeId(0), NodeId(2)).wrap(payload(2));
        s.sender(NodeId(0), NodeId(2)).wrap(payload(3));
        assert_eq!(s.total_unacked(), 3);
        let cfg = s.cfg;
        s.sender(NodeId(0), NodeId(2)).on_ack(2, 0, &cfg);
        assert_eq!(s.total_unacked(), 1);
        assert_eq!(s.receiver(NodeId(0), NodeId(1)).delivered(), 0);
    }
}
