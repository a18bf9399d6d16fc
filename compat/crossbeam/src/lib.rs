//! Vendored, self-contained subset of the `crossbeam` channel API.
//!
//! Offline stand-in for `crossbeam::channel`: an unbounded MPMC channel
//! built on `Mutex<VecDeque>` + `Condvar`, with cloneable `Sender` and
//! `Receiver` halves and the same disconnect semantics the live executor
//! relies on (send fails once every receiver is gone; recv fails once the
//! queue is drained and every sender is gone).
//!
//! A send wakes a receiver only when one is asleep: receivers blocked in
//! [`recv`](channel::Receiver::recv) or
//! [`recv_timeout`](channel::Receiver::recv_timeout) count themselves
//! under the state lock, and a send that finds the count at zero skips
//! the condvar (on Linux a `futex_wake` system call). The live executor's
//! message rates are low, but each of its round trips is paced by the
//! wake-ups on the way, so a receiver that polls with
//! [`try_recv`](channel::Receiver::try_recv) while it is awake costs its
//! senders nothing.

#![warn(missing_docs)]

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `ready`: a send notifies only if some are.
        asleep: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                asleep: 0,
            }),
            ready: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`, failing only if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            let asleep = st.asleep > 0;
            drop(st);
            // A receiver counts itself asleep under the lock before it
            // waits, so one that found the queue empty is counted here.
            if asleep {
                self.chan.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            Sender { chan: self.chan.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.asleep += 1;
                st = self.chan.ready.wait(st).unwrap();
                st.asleep -= 1;
            }
        }

        /// Dequeues a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.state.lock().unwrap();
            if let Some(msg) = st.queue.pop_front() {
                return Ok(msg);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocks up to `timeout` for a message; a timeout too long for
        /// an [`Instant`] (such as [`Duration::MAX`]) never expires.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let Some(deadline) = Instant::now().checked_add(timeout) else {
                return self.recv().map_err(|RecvError| RecvTimeoutError::Disconnected);
            };
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.asleep += 1;
                st = self.chan.ready.wait_timeout(st, deadline - now).unwrap().0;
                st.asleep -= 1;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().receivers += 1;
            Receiver { chan: self.chan.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.state.lock().unwrap().receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_within_one_sender() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            for i in 0..100 {
                assert_eq!(rx.recv(), Ok(i));
            }
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
        }

        #[test]
        fn timeout_fires_without_sender_activity() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
            drop(tx);
        }

        #[test]
        fn a_timeout_too_long_for_an_instant_never_expires() {
            let (tx, rx) = unbounded();
            let sender = thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                tx.send(7).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(7));
            sender.join().unwrap();
            assert_eq!(rx.recv_timeout(Duration::MAX), Err(RecvTimeoutError::Disconnected));
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let sender = thread::spawn(move || {
                for i in 0..1000 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            sender.join().unwrap();
            assert_eq!(got, (0..1000).collect::<Vec<_>>());
        }
    }
}
