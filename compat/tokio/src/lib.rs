//! Vendored offline subset of the `tokio` API surface that `mc-net` and
//! `mcbench` name — `Runtime`/`Handle`, TCP, a bounded mpsc channel and
//! `sleep` — over plain OS threads and blocking std calls.
//!
//! Differences from upstream (deliberate: a shim, not a scheduler):
//!
//! - **One thread per task.** `Handle::spawn` starts an OS thread that
//!   polls its future with a no-op waker. No task queue, no worker pool,
//!   no timer thread; `with_workers(n)` ignores `n`.
//! - **Blocking leaves.** `accept`, `connect`, `read`, `write_all`, `recv`
//!   and `sleep` make the blocking std call inside their first poll and
//!   return `Ready`: a task waits in the kernel on its own thread. Nothing
//!   is `Pending` while the runtime lives, so nothing needs waking. The
//!   channel's `try_recv` is the one leaf that never waits (a link writer
//!   takes what is already queued behind the frame it woke for).
//! - **Why that fits.** The traffic served is O(n²) long-lived loops —
//!   one accept loop per node, one writer and one reader per directed
//!   link — never many short tasks. A thread parked in `read` costs
//!   nothing while its link is idle and the kernel wakes it the moment
//!   bytes arrive, which a readiness poll on a timer only approximates.
//! - **Teardown is the one thing the runtime owns.** Dropping it raises a
//!   stop flag, wakes every parked task (sockets shut down for reading,
//!   listeners dialled once, channels closed from the send side) and
//!   joins every thread. A writer first drains what is already queued;
//!   `connect` and `accept` on a stopping runtime return `Pending`, which
//!   ends the task. No thread and no listening port outlives the runtime.
//! - `TcpStream` has inherent `async fn read`/`write_all` instead of the
//!   `AsyncRead`/`AsyncWrite` traits, and `into_std` keeps the socket
//!   blocking.

pub mod runtime {
    //! The thread-per-task runtime and its teardown registry.

    use std::cell::RefCell;
    use std::future::Future;
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
    use std::task::{Context, Poll, Waker};

    /// Stack of a task thread. The transport's futures keep their buffers
    /// on the heap; a small explicit stack keeps a full link mesh cheap.
    const TASK_STACK: usize = 256 * 1024;

    std::thread_local! {
        /// The runtime driving this thread's task, if any.
        static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    }

    /// Something a task parks on, and how teardown wakes that task.
    pub(crate) trait Stop: Send + Sync {
        fn stop(&self);
    }

    #[derive(Default)]
    struct State {
        stopping: bool,
        /// Weak, so a closed socket or dropped channel just falls out.
        parked_on: Vec<Weak<dyn Stop>>,
        threads: Vec<std::thread::JoinHandle<()>>,
    }

    #[derive(Default)]
    pub(crate) struct Shared(Mutex<State>);

    impl Shared {
        /// Every critical section is a few field updates that cannot
        /// panic half-way, so a poisoned lock still guards valid state.
        fn lock(&self) -> MutexGuard<'_, State> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn stopping(&self) -> bool {
            self.lock().stopping
        }
    }

    /// On a task: has its runtime's teardown call `target.stop()` — at
    /// once if teardown has begun, so nothing misses its wake-up.
    pub(crate) fn wake_on_stop<S: Stop + 'static>(target: &Arc<S>) {
        let Some(rt) = CURRENT.with_borrow(Clone::clone) else { return };
        let mut state = rt.lock();
        if state.stopping {
            target.stop();
        } else {
            state.parked_on.retain(|t| t.strong_count() > 0);
            state.parked_on.push(Arc::downgrade(target) as Weak<dyn Stop>);
        }
    }

    /// Resolves at once unless this thread's runtime is stopping; then
    /// never — the task ends at this await.
    pub(crate) async fn unless_stopping() {
        if CURRENT.with_borrow(|rt| rt.as_ref().is_some_and(|rt| rt.stopping())) {
            std::future::pending::<()>().await;
        }
    }

    /// Polls `fut` on this thread until it resolves, or — `None` — until
    /// it is `Pending` on a stopping runtime.
    fn drive<F: Future>(shared: &Arc<Shared>, fut: F) -> Option<F::Output> {
        let prev = CURRENT.replace(Some(shared.clone()));
        let mut fut = std::pin::pin!(fut);
        let mut cx = Context::from_waker(Waker::noop());
        let out = loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => break Some(v),
                Poll::Pending if shared.stopping() => break None,
                // No leaf of this crate gets here; a foreign future that
                // yields is polled again.
                Poll::Pending => std::thread::yield_now(),
            }
        };
        CURRENT.set(prev);
        out
    }

    /// A cloneable handle for spawning onto a runtime.
    #[derive(Clone)]
    pub struct Handle(Arc<Shared>);

    impl Handle {
        /// Runs `fut` to completion on a thread of its own. A runtime
        /// that is already stopping drops it unpolled.
        pub fn spawn<F: Future + Send + 'static>(&self, fut: F) {
            let mut state = self.0.lock();
            if state.stopping {
                return;
            }
            state.threads.retain(|t| !t.is_finished());
            let shared = self.0.clone();
            let thread = std::thread::Builder::new()
                .name("tokio-compat-task".into())
                .stack_size(TASK_STACK)
                .spawn(move || drop(drive(&shared, fut)))
                .expect("spawn task thread");
            state.threads.push(thread);
        }
    }

    /// The runtime: owns every task thread and knows how to wake each.
    pub struct Runtime(Handle);

    impl Runtime {
        /// A runtime. `workers` is unused — every task gets its own
        /// thread — and kept so callers that size a pool still compile.
        pub fn with_workers(_workers: usize) -> Runtime {
            Runtime(Handle(Arc::default()))
        }

        pub fn handle(&self) -> &Handle {
            &self.0
        }

        /// Runs `fut` to completion on the calling thread.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            drive(&self.0 .0, fut).expect("a borrowed runtime is not stopping")
        }
    }

    impl Drop for Runtime {
        /// Drain, then join: parked tasks are woken and end, writers
        /// finish their queues, and every thread is joined.
        fn drop(&mut self) {
            let mut state = self.0 .0.lock();
            state.stopping = true;
            let (parked_on, threads) =
                (std::mem::take(&mut state.parked_on), std::mem::take(&mut state.threads));
            drop(state);
            parked_on.iter().filter_map(Weak::upgrade).for_each(|target| target.stop());
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

pub mod time {
    //! Sleeping.

    /// Completes once `dur` has elapsed (the task's thread sleeps).
    pub async fn sleep(dur: std::time::Duration) {
        std::thread::sleep(dur);
    }
}

pub mod net {
    //! TCP over blocking std sockets.

    use std::io::{self, Read, Write};
    use std::net::{Shutdown, SocketAddr};
    use std::sync::Arc;
    use std::time::Duration;

    use crate::runtime::{unless_stopping, wake_on_stop, Stop};

    #[cfg(test)]
    std::thread_local! {
        /// Read system calls this thread has completed.
        pub(crate) static READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// A thread parked in `accept` wakes only for a connection, so
    /// teardown dials one.
    impl Stop for std::net::TcpListener {
        fn stop(&self) {
            if let Ok(addr) = self.local_addr() {
                let _ = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
        }
    }

    /// Shutting down the read half wakes a parked `read` with EOF and
    /// leaves a write already under way alone.
    impl Stop for std::net::TcpStream {
        fn stop(&self) {
            let _ = self.shutdown(Shutdown::Read);
        }
    }

    /// A listening TCP socket.
    pub struct TcpListener(Arc<std::net::TcpListener>);

    impl TcpListener {
        /// Wraps an already-bound std listener (infallible here; the
        /// `Result` is upstream's signature).
        pub fn from_std(inner: std::net::TcpListener) -> io::Result<TcpListener> {
            let inner = Arc::new(inner);
            wake_on_stop(&inner);
            Ok(TcpListener(inner))
        }

        /// Accepts the next inbound connection; propagates accept errors.
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            let (stream, addr) = self.0.accept()?;
            // The connection may be teardown's wake-up dial, not a peer.
            unless_stopping().await;
            Ok((TcpStream::adopt(stream), addr))
        }
    }

    /// A connected TCP socket.
    pub struct TcpStream(Arc<std::net::TcpStream>);

    impl TcpStream {
        fn adopt(inner: std::net::TcpStream) -> TcpStream {
            let inner = Arc::new(inner);
            wake_on_stop(&inner);
            TcpStream(inner)
        }

        /// Connects to `addr`; propagates the connect error. A stopping
        /// runtime dials nobody: a redial loop ends here.
        pub async fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
            unless_stopping().await;
            Ok(TcpStream::adopt(std::net::TcpStream::connect(addr)?))
        }

        /// The std socket, for writes from threads off the runtime. Unlike
        /// upstream it stays blocking, and teardown no longer wakes it.
        pub fn into_std(self) -> io::Result<std::net::TcpStream> {
            Arc::try_unwrap(self.0).or_else(|shared| shared.try_clone())
        }

        /// Propagates the underlying setsockopt error.
        pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
            self.0.set_nodelay(nodelay)
        }

        /// Reads into `buf`, resolving with the number of bytes read
        /// (0 = EOF, which is also how teardown ends a reader).
        pub async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            loop {
                let res = (&*self.0).read(buf);
                #[cfg(test)]
                READS.set(READS.get() + 1);
                match res {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    res => return res,
                }
            }
        }

        /// Writes all of `buf`; a closed peer surfaces as `WriteZero` or
        /// a broken pipe.
        pub async fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            (&*self.0).write_all(buf)
        }
    }
}

pub mod sync {
    //! Synchronisation primitives.

    pub mod mpsc {
        //! A bounded channel with a blocking send side — the bridge
        //! between protocol threads and the writer task of a link — over
        //! `std::sync::mpsc::sync_channel`.

        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::{sync_channel, SyncSender};
        use std::sync::{Arc, Mutex, Weak};

        pub use std::sync::mpsc::{SendError, TryRecvError};

        use crate::runtime::{wake_on_stop, Stop};

        /// The send side, which teardown can close: the receiving task
        /// then drains what is queued, sees the channel closed and ends,
        /// and later sends fail as they do once the receiver is gone.
        struct Gate<T>(Mutex<Option<SyncSender<T>>>);

        impl<T: Send> Stop for Gate<T> {
            fn stop(&self) {
                self.0.lock().expect("gate healthy").take();
            }
        }

        /// Sending endpoint.
        pub struct Sender<T> {
            gate: Arc<Gate<T>>,
            /// Values sent (or being sent) and not yet received.
            queued: Arc<AtomicUsize>,
            cap: usize,
        }

        /// Receiving endpoint.
        pub struct Receiver<T> {
            rx: std::sync::mpsc::Receiver<T>,
            /// Until the first receive has told the runtime about it.
            gate: Weak<Gate<T>>,
            queued: Arc<AtomicUsize>,
        }

        /// A bounded channel of capacity `cap`.
        pub fn channel<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = sync_channel(cap);
            let gate = Arc::new(Gate(Mutex::new(Some(tx))));
            let queued = Arc::new(AtomicUsize::new(0));
            let receiver = Receiver { rx, gate: Arc::downgrade(&gate), queued: queued.clone() };
            (Sender { gate, queued, cap }, receiver)
        }

        impl<T> Sender<T> {
            /// Blocks the calling thread until there is space, then
            /// enqueues — the transport's backpressure point. Returns the
            /// value if the receiving task is gone or its runtime stopped.
            pub fn blocking_send(&self, value: T) -> Result<(), SendError<T>> {
                // Cloned out, so a send blocked on a full queue does not
                // hold the gate shut against teardown.
                let tx = self.gate.0.lock().expect("gate healthy").clone();
                let Some(tx) = tx else { return Err(SendError(value)) };
                self.queued.fetch_add(1, Ordering::Relaxed);
                tx.send(value).inspect_err(|_| {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                })
            }

            /// Slots currently free — `max_capacity` when drained.
            pub fn capacity(&self) -> usize {
                self.cap.saturating_sub(self.queued.load(Ordering::Relaxed))
            }

            /// The capacity the channel was created with.
            pub fn max_capacity(&self) -> usize {
                self.cap
            }
        }

        impl<T: Send + 'static> Receiver<T> {
            /// Receives the next value; `None` once the queue is drained
            /// and the sender is gone or the runtime is stopping.
            pub async fn recv(&mut self) -> Option<T> {
                self.register();
                let value = self.rx.recv().ok()?;
                self.queued.fetch_sub(1, Ordering::Relaxed);
                Some(value)
            }

            /// Takes the next value if one is queued, without waiting:
            /// `Empty` when none is, `Disconnected` once the queue is
            /// drained and the sender is gone or the runtime is stopping.
            pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
                self.register();
                let value = self.rx.try_recv()?;
                self.queued.fetch_sub(1, Ordering::Relaxed);
                Ok(value)
            }

            /// Tells the runtime, once, that teardown must close this
            /// channel — before the task first receives, so a task that
            /// only ever polls still sees the channel close.
            fn register(&mut self) {
                if let Some(gate) = std::mem::take(&mut self.gate).upgrade() {
                    wake_on_stop(&gate);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::net::{TcpListener, TcpStream, READS};
    use crate::runtime::Runtime;

    fn bound() -> (std::net::TcpListener, std::net::SocketAddr) {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        (listener, addr)
    }

    #[test]
    fn block_on_plain_future() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn spawned_tasks_run_and_are_joined_by_drop() {
        let rt = Runtime::with_workers(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = counter.clone();
            rt.handle().spawn(async move {
                crate::time::sleep(Duration::from_millis(1)).await;
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(rt);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn sleep_waits_roughly_long_enough() {
        let rt = Runtime::with_workers(1);
        let start = Instant::now();
        rt.block_on(crate::time::sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn mpsc_bridges_sync_and_async() {
        let rt = Runtime::with_workers(2);
        let (tx, mut rx) = crate::sync::mpsc::channel::<u32>(4);
        assert_eq!((tx.capacity(), tx.max_capacity()), (4, 4));
        let (sum_tx, sum_rx) = std::sync::mpsc::channel();
        rt.handle().spawn(async move {
            let mut sum = 0u32;
            for _ in 0..100 {
                sum += rx.recv().await.expect("sender alive");
            }
            sum_tx.send(sum).expect("test alive");
            // Sender dropped, queue drained: the channel reports closed.
            assert_eq!(rx.recv().await, None);
        });
        for i in 0..100 {
            tx.blocking_send(i).expect("receiver alive");
        }
        assert_eq!(sum_rx.recv().expect("consumer finishes"), (0..100).sum());
        assert_eq!(tx.capacity(), tx.max_capacity(), "drained queue is all free slots");
        drop(tx);
        drop(rt);
    }

    /// `try_recv` takes only what is queued and frees its slot, and a
    /// task that only ever polls still ends at teardown.
    #[test]
    fn try_recv_takes_what_is_queued_and_sees_teardown() {
        use crate::sync::mpsc::TryRecvError;
        let rt = Runtime::with_workers(1);
        let (tx, mut rx) = crate::sync::mpsc::channel::<u32>(4);
        tx.blocking_send(1).expect("receiver alive");
        tx.blocking_send(2).expect("receiver alive");
        assert_eq!(tx.capacity(), 2);
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        rt.handle().spawn(async move {
            let mut got = Vec::new();
            loop {
                match rx.try_recv() {
                    Ok(v) => got.push(v),
                    Err(TryRecvError::Empty) => std::thread::sleep(Duration::from_millis(1)),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
            got_tx.send(got).expect("test alive");
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while tx.capacity() < 4 {
            assert!(Instant::now() < deadline, "the queued values are taken");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The sender is still alive, so only teardown can end the task.
        drop(rt);
        assert_eq!(got_rx.recv().expect("the task ended"), [1, 2]);
        assert!(tx.blocking_send(3).is_err());
    }

    #[test]
    fn send_fails_once_the_receiving_task_is_gone() {
        let rt = Runtime::with_workers(1);
        let (tx, mut rx) = crate::sync::mpsc::channel::<u32>(1);
        rt.handle().spawn(async move { while rx.recv().await.is_some() {} });
        tx.blocking_send(1).expect("receiver alive");
        // The sender is still alive, so only teardown can end the task.
        drop(rt);
        assert!(tx.blocking_send(2).is_err());
    }

    #[test]
    fn tcp_echo_over_loopback() {
        let rt = Runtime::with_workers(2);
        let (listener, addr) = bound();
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        rt.handle().spawn(async move {
            let listener = TcpListener::from_std(listener).expect("wrap");
            let (mut conn, _) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 64];
            let mut got = Vec::new();
            loop {
                let n = conn.read(&mut buf).await.expect("read");
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
                conn.write_all(&buf[..n]).await.expect("write");
            }
            got_tx.send(got).expect("test alive");
        });
        rt.block_on(async {
            let mut client = TcpStream::connect(addr).await.expect("connect");
            client.set_nodelay(true).expect("nodelay");
            client.write_all(b"ping pong").await.expect("write");
            let mut echo = vec![0u8; 9];
            let mut read = 0;
            while read < echo.len() {
                let n = client.read(&mut echo[read..]).await.expect("read");
                assert!(n > 0, "server closed early");
                read += n;
            }
            assert_eq!(&echo, b"ping pong");
        });
        assert_eq!(got_rx.recv().expect("server saw EOF"), b"ping pong");
    }

    /// A silent link performs no reads; each arriving burst costs one.
    #[test]
    fn idle_link_costs_nothing() {
        let rt = Runtime::with_workers(2);
        let (listener, addr) = bound();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        rt.handle().spawn(async move {
            let listener = TcpListener::from_std(listener).expect("wrap");
            let (mut conn, _) = listener.accept().await.expect("accept");
            let mut buf = [0u8; 256];
            while let Ok(n @ 1..) = conn.read(&mut buf).await {
                seen_tx.send((n, READS.get())).expect("test alive");
            }
        });
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.set_nodelay(true).expect("nodelay");
        std::thread::sleep(Duration::from_millis(50));
        assert!(seen_rx.try_recv().is_err(), "nothing was sent yet");
        for burst in 1..=5 {
            std::io::Write::write_all(&mut client, &[7u8; 100]).expect("write");
            // Waiting for the reader's report keeps bursts from merging.
            let seen = seen_rx.recv_timeout(Duration::from_secs(10)).expect("burst arrives");
            assert_eq!(seen, (100, burst), "one completed read per burst, none while idle");
        }
    }

    /// Every kind of parked task — accept, read, recv with a live
    /// sender, a redial loop — ends at teardown, and the port is free.
    #[test]
    fn drop_wakes_every_parked_task_and_frees_the_port() {
        let rt = Runtime::with_workers(1);
        let (listener, addr) = bound();
        let (dead, dead_addr) = bound();
        drop(dead);
        let (up_tx, up_rx) = std::sync::mpsc::channel();
        let handle = rt.handle().clone();
        rt.handle().spawn(async move {
            let listener = TcpListener::from_std(listener).expect("wrap");
            loop {
                let (mut conn, _) = listener.accept().await.expect("accept");
                up_tx.send(()).expect("test alive");
                handle.spawn(async move { while let Ok(1..) = conn.read(&mut [0u8; 8]).await {} });
            }
        });
        let (tx, mut rx) = crate::sync::mpsc::channel::<u8>(4);
        rt.handle().spawn(async move {
            let _conn = TcpStream::connect(addr).await.expect("connect");
            rx.recv().await;
        });
        rt.handle().spawn(async move {
            while TcpStream::connect(dead_addr).await.is_err() {
                crate::time::sleep(Duration::from_millis(1)).await;
            }
        });
        up_rx.recv_timeout(Duration::from_secs(10)).expect("link comes up");
        drop(rt);
        std::net::TcpListener::bind(addr).expect("the listening port is free again");
        drop(tx);
    }
}
