//! The program-facing memory context: the operation vocabulary of the
//! paper's Section 3.1 (labeled reads, writes, `wl/wu/rl/ru`, barriers,
//! awaits) and Section 5.3 (counter objects), defined once.
//!
//! [`MemCtx`] is the program-side twin of [`ProcNode`](crate::ProcNode):
//! the node is the protocol behind a [`NodeIo`](crate::NodeIo), the
//! context is the program in front of a [`Driver`]. Every operation is
//! one [`Req`] handed to the driver and one [`Resp`] back, recorded into
//! the shared [`HistoryBuilder`] when recording is on. A driver is all an
//! executor has to supply — the simulator's hands the request to the
//! kernel, the live one runs it against its own `ProcNode` — so a program
//! written against `&mut MemCtx<impl Driver>` runs unchanged on the
//! simulator, on threads and over TCP.

use std::fmt;
use std::sync::{Arc, Mutex};

use mc_model::{
    BarrierId, BarrierRound, HistoryBuilder, Loc, LockId, LockMode, OpKind, ProcId, ReadLabel,
    Value, WriteId,
};
use mc_sim::SimTime;

use crate::node::{Req, Resp};

/// What an executor supplies to run programs: one process's identity and
/// a blocking request/response channel to its protocol node.
pub trait Driver {
    /// The process this driver runs.
    fn proc(&self) -> ProcId;

    /// Runs one operation to completion.
    fn op(&mut self, req: Req) -> Resp;

    /// Charges `cost` of local work. Only virtual time needs telling:
    /// off the simulator local work costs the real time it takes.
    fn compute(&mut self, _cost: SimTime) {}
}

/// The per-process handle: the memory and synchronization operations of
/// the mixed-consistency model, over any executor's [`Driver`].
pub struct MemCtx<D> {
    driver: D,
    recorder: Option<Arc<Mutex<HistoryBuilder>>>,
}

impl<D: Driver> fmt::Debug for MemCtx<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemCtx")
            .field("proc", &self.proc())
            .field("recording", &self.recorder.is_some())
            .finish()
    }
}

impl<D: Driver> MemCtx<D> {
    /// A context over `driver`, recording every operation into `recorder`
    /// when there is one.
    pub fn new(driver: D, recorder: Option<Arc<Mutex<HistoryBuilder>>>) -> Self {
        MemCtx { driver, recorder }
    }

    /// Gives the driver back (an executor's node main keeps serving its
    /// node after the program returns).
    pub fn into_driver(self) -> D {
        self.driver
    }

    /// This process's id.
    pub fn proc(&self) -> ProcId {
        self.driver.proc()
    }

    fn push(&mut self, kind: OpKind) {
        if let Some(rec) = &self.recorder {
            rec.lock().expect("recorder healthy").push(self.driver.proc(), kind);
        }
    }

    /// Writes `value` to `loc` (non-blocking) and returns the write id.
    pub fn write(&mut self, loc: Loc, value: impl Into<Value>) -> WriteId {
        let value = value.into();
        match self.driver.op(Req::Write { loc, value }) {
            Resp::Wrote { id } => {
                self.push(OpKind::Write { loc, value, id });
                id
            }
            other => unreachable!("write answered with {other:?}"),
        }
    }

    /// Applies a commutative increment to the counter at `loc`
    /// (Section 5.3's abstract objects). Integer deltas apply to integer
    /// counters, float deltas to float cells (the Cholesky optimization).
    pub fn add(&mut self, loc: Loc, delta: impl Into<Value>) -> WriteId {
        let delta = delta.into();
        match self.driver.op(Req::Update { loc, delta }) {
            Resp::Wrote { id } => {
                self.push(OpKind::Update { loc, delta, id });
                id
            }
            other => unreachable!("update answered with {other:?}"),
        }
    }

    /// Reads `loc` with an explicit consistency label.
    pub fn read(&mut self, loc: Loc, label: ReadLabel) -> Value {
        match self.driver.op(Req::Read { loc, label }) {
            Resp::Value { value, writer } => {
                let writer = Some(writer.unwrap_or(WriteId::initial(loc)));
                self.push(OpKind::Read { loc, label, value, writer });
                value
            }
            other => unreachable!("read answered with {other:?}"),
        }
    }

    /// Reads `loc` as a causal read (Definition 2).
    pub fn read_causal(&mut self, loc: Loc) -> Value {
        self.read(loc, ReadLabel::Causal)
    }

    /// Reads `loc` as a PRAM read (Definition 3).
    pub fn read_pram(&mut self, loc: Loc) -> Value {
        self.read(loc, ReadLabel::Pram)
    }

    /// Acquires a lock.
    pub fn lock(&mut self, lock: LockId, mode: LockMode) {
        let resp = self.driver.op(Req::Lock { lock, mode });
        debug_assert_eq!(resp, Resp::Done);
        self.push(OpKind::Lock { lock, mode });
    }

    /// Releases a lock.
    pub fn unlock(&mut self, lock: LockId, mode: LockMode) {
        // Record before the release message leaves: the next holder's
        // grant (and its own record) is causally after this push, keeping
        // the recorder's epoch order valid.
        self.push(OpKind::Unlock { lock, mode });
        let resp = self.driver.op(Req::Unlock { lock, mode });
        debug_assert_eq!(resp, Resp::Done);
    }

    /// Acquires `lock` in write mode (`wl`).
    pub fn write_lock(&mut self, lock: LockId) {
        self.lock(lock, LockMode::Write);
    }

    /// Releases `lock` from write mode (`wu`).
    pub fn write_unlock(&mut self, lock: LockId) {
        self.unlock(lock, LockMode::Write);
    }

    /// Acquires `lock` in read mode (`rl`).
    pub fn read_lock(&mut self, lock: LockId) {
        self.lock(lock, LockMode::Read);
    }

    /// Releases `lock` from read mode (`ru`).
    pub fn read_unlock(&mut self, lock: LockId) {
        self.unlock(lock, LockMode::Read);
    }

    /// Runs `f` inside a write critical section of `lock`.
    pub fn with_write_lock<R>(&mut self, lock: LockId, f: impl FnOnce(&mut Self) -> R) -> R {
        self.write_lock(lock);
        let r = f(self);
        self.write_unlock(lock);
        r
    }

    /// Arrives at (and passes) the default barrier object.
    pub fn barrier(&mut self) {
        self.barrier_on(BarrierId(0));
    }

    /// Arrives at (and passes) a specific barrier object.
    pub fn barrier_on(&mut self, barrier: BarrierId) {
        match self.driver.op(Req::Barrier { barrier }) {
            Resp::BarrierPassed { round } => {
                self.push(OpKind::Barrier { barrier, round: BarrierRound(round) });
            }
            other => unreachable!("barrier answered with {other:?}"),
        }
    }

    /// Blocks until `loc = value` (`await`, Section 3.1.3) and returns the
    /// observed value.
    pub fn await_eq(&mut self, loc: Loc, value: impl Into<Value>) -> Value {
        match self.driver.op(Req::Await { loc, value: value.into() }) {
            Resp::Awaited { value, mut writers } => {
                if writers.is_empty() {
                    writers.push(WriteId::initial(loc));
                }
                self.push(OpKind::Await { loc, value, writers });
                value
            }
            other => unreachable!("await answered with {other:?}"),
        }
    }

    /// Charges `cost` of compute time (models local work between memory
    /// operations; see [`Driver::compute`]).
    pub fn compute(&mut self, cost: SimTime) {
        self.driver.compute(cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::Op;
    use std::collections::VecDeque;

    type Recorder = Arc<Mutex<HistoryBuilder>>;

    /// The third [`Driver`]: answers from a script and notes, for every
    /// request, how many operations the recorder held when it arrived.
    struct Scripted {
        answers: VecDeque<Resp>,
        recorder: Option<Recorder>,
        seen: Vec<(Req, usize)>,
    }

    impl Driver for Scripted {
        fn proc(&self) -> ProcId {
            ProcId(0)
        }

        fn op(&mut self, req: Req) -> Resp {
            // Taking the lock here also shows the context holds it across
            // no driver call (a std mutex does not re-enter).
            let recorded = self.recorder.as_ref().map_or(0, |r| r.lock().unwrap().len());
            self.seen.push((req, recorded));
            self.answers.pop_front().expect("one scripted answer per request")
        }
    }

    fn ctx(record: bool, answers: Vec<Resp>) -> (MemCtx<Scripted>, Option<Recorder>) {
        let recorder = record.then(|| Arc::new(Mutex::new(HistoryBuilder::new(1))));
        let driver =
            Scripted { answers: answers.into(), recorder: recorder.clone(), seen: Vec::new() };
        (MemCtx::new(driver, recorder.clone()), recorder)
    }

    fn recorded(recorder: Recorder) -> Vec<OpKind> {
        let history = recorder.lock().unwrap().clone().build().expect("well-formed");
        history.ops().iter().map(|Op { kind, .. }| kind.clone()).collect()
    }

    const X: Loc = Loc(3);
    const L: LockId = LockId(1);

    #[test]
    fn each_operation_sends_exactly_one_request() {
        let w = WriteId::new(ProcId(0), 1);
        let u = WriteId::new(ProcId(0), 2);
        let (mut ctx, rec) = ctx(
            true,
            vec![
                Resp::Wrote { id: w },
                Resp::Wrote { id: u },
                Resp::Value { value: Value::Int(5), writer: Some(u) },
                Resp::Value { value: Value::Int(5), writer: Some(u) },
                Resp::Value { value: Value::Int(5), writer: Some(u) },
                Resp::Done,
                Resp::Done,
                Resp::Done,
                Resp::Done,
                Resp::BarrierPassed { round: 0 },
                Resp::BarrierPassed { round: 0 },
                Resp::Awaited { value: Value::Int(5), writers: vec![w, u] },
            ],
        );
        assert_eq!(ctx.write(X, 4), w);
        assert_eq!(ctx.add(X, 1), u);
        assert_eq!(ctx.read(X, ReadLabel::Causal), Value::Int(5));
        assert_eq!(ctx.read_causal(X), Value::Int(5));
        assert_eq!(ctx.read_pram(X), Value::Int(5));
        ctx.write_lock(L);
        ctx.write_unlock(L);
        ctx.read_lock(L);
        ctx.read_unlock(L);
        ctx.barrier();
        ctx.barrier_on(BarrierId(2));
        assert_eq!(ctx.await_eq(X, 5), Value::Int(5));
        ctx.compute(SimTime::from_nanos(10));

        let driver = ctx.into_driver();
        assert!(driver.answers.is_empty());
        let reqs: Vec<Req> = driver.seen.into_iter().map(|(req, _)| req).collect();
        let (causal, pram) = (ReadLabel::Causal, ReadLabel::Pram);
        let (wr, rd) = (LockMode::Write, LockMode::Read);
        assert_eq!(
            reqs,
            vec![
                Req::Write { loc: X, value: Value::Int(4) },
                Req::Update { loc: X, delta: Value::Int(1) },
                Req::Read { loc: X, label: causal },
                Req::Read { loc: X, label: causal },
                Req::Read { loc: X, label: pram },
                Req::Lock { lock: L, mode: wr },
                Req::Unlock { lock: L, mode: wr },
                Req::Lock { lock: L, mode: rd },
                Req::Unlock { lock: L, mode: rd },
                Req::Barrier { barrier: BarrierId(0) },
                Req::Barrier { barrier: BarrierId(2) },
                Req::Await { loc: X, value: Value::Int(5) },
            ]
        );
        // One record per request, in issue order.
        let ops = recorded(rec.unwrap());
        assert_eq!(ops.len(), reqs.len());
        assert_eq!(ops[0], OpKind::Write { loc: X, value: Value::Int(4), id: w });
        assert_eq!(ops[1], OpKind::Update { loc: X, delta: Value::Int(1), id: u });
        assert_eq!(
            ops[4],
            OpKind::Read { loc: X, label: pram, value: Value::Int(5), writer: Some(u) }
        );
        assert_eq!(ops[10], OpKind::Barrier { barrier: BarrierId(2), round: BarrierRound(0) });
        assert_eq!(ops[11], OpKind::Await { loc: X, value: Value::Int(5), writers: vec![w, u] });
    }

    #[test]
    fn unlock_is_recorded_before_the_driver_sees_it() {
        let (mut ctx, rec) = ctx(true, vec![Resp::Done, Resp::Done]);
        ctx.lock(L, LockMode::Write);
        ctx.unlock(L, LockMode::Write);
        let seen = ctx.into_driver().seen;
        // The acquire is recorded once granted, the release before it is
        // sent.
        assert_eq!(seen[0], (Req::Lock { lock: L, mode: LockMode::Write }, 0));
        assert_eq!(seen[1], (Req::Unlock { lock: L, mode: LockMode::Write }, 2));
        assert_eq!(
            recorded(rec.unwrap()),
            vec![
                OpKind::Lock { lock: L, mode: LockMode::Write },
                OpKind::Unlock { lock: L, mode: LockMode::Write },
            ]
        );
    }

    #[test]
    fn reads_and_awaits_of_the_initial_value_name_the_initial_write() {
        let (mut ctx, rec) = ctx(
            true,
            vec![
                Resp::Value { value: Value::Int(0), writer: None },
                Resp::Awaited { value: Value::Int(0), writers: Vec::new() },
            ],
        );
        assert_eq!(ctx.read_pram(X), Value::Int(0));
        assert_eq!(ctx.await_eq(X, 0), Value::Int(0));
        let init = WriteId::initial(X);
        assert_eq!(
            recorded(rec.unwrap()),
            vec![
                OpKind::Read {
                    loc: X,
                    label: ReadLabel::Pram,
                    value: Value::Int(0),
                    writer: Some(init)
                },
                OpKind::Await { loc: X, value: Value::Int(0), writers: vec![init] },
            ]
        );
    }

    #[test]
    fn with_write_lock_brackets_its_body() {
        let w = WriteId::new(ProcId(0), 1);
        let (mut ctx, rec) = ctx(true, vec![Resp::Done, Resp::Wrote { id: w }, Resp::Done]);
        let got = ctx.with_write_lock(L, |c| c.write(X, 9));
        assert_eq!(got, w);
        let kinds: Vec<&str> = ctx
            .into_driver()
            .seen
            .iter()
            .map(|(req, _)| match req {
                Req::Lock { .. } => "lock",
                Req::Write { .. } => "write",
                Req::Unlock { .. } => "unlock",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["lock", "write", "unlock"]);
        let ops = recorded(rec.unwrap());
        assert!(matches!(ops[0], OpKind::Lock { mode: LockMode::Write, .. }));
        assert!(matches!(ops[1], OpKind::Write { .. }));
        assert!(matches!(ops[2], OpKind::Unlock { mode: LockMode::Write, .. }));
    }

    #[test]
    fn without_a_recorder_operations_still_run_and_nothing_is_recorded() {
        let w = WriteId::new(ProcId(0), 1);
        let (mut ctx, rec) = ctx(
            false,
            vec![
                Resp::Wrote { id: w },
                Resp::Value { value: Value::Int(1), writer: Some(w) },
                Resp::Done,
                Resp::Done,
            ],
        );
        assert!(rec.is_none());
        assert_eq!(ctx.write(X, 1), w);
        assert_eq!(ctx.read_causal(X), Value::Int(1));
        ctx.with_write_lock(L, |_| ());
        assert_eq!(format!("{ctx:?}"), "MemCtx { proc: ProcId(0), recording: false }");
        let driver = ctx.into_driver();
        assert_eq!(driver.seen.len(), 4);
        assert!(driver.seen.iter().all(|&(_, recorded)| recorded == 0));
    }

    #[test]
    #[should_panic(expected = "read answered with Done")]
    fn a_mismatched_answer_names_what_came_back() {
        let (mut ctx, _) = ctx(false, vec![Resp::Done]);
        ctx.read_causal(X);
    }
}
