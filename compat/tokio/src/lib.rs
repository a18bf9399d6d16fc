//! Vendored offline subset of the `tokio` API that `benchmark/` still
//! names: `Runtime::{with_workers, handle, block_on}`, a cloneable
//! `Handle` and `time::sleep`. No crate under `crates/` depends on it
//! (`mc-net`'s legacy `spawn_listener` and `TcpTransportBuilder::link`
//! take a `Handle` and ignore it); the benchmark change of ROADMAP item
//! 18 deletes it.
//!
//! Differences from upstream (deliberate: a shim, not a scheduler): no
//! task, no worker, no timer. `block_on` polls its future on the calling
//! thread with a no-op waker, and `sleep` is `std::thread::sleep` inside
//! its first poll, so `rt.timer_overshoot_p50_us` times a thread sleep.

pub mod runtime {
    //! A runtime that runs one future on the calling thread.

    use std::future::Future;
    use std::task::{Context, Poll, Waker};

    /// What `benchmark/` passes along; there is nothing to spawn onto.
    #[derive(Clone)]
    pub struct Handle(());

    /// The runtime: a [`Handle`] and [`block_on`](Runtime::block_on).
    pub struct Runtime(Handle);

    impl Runtime {
        /// A runtime. `workers` is unused — nothing runs beside the
        /// caller — and kept so callers that size a pool still compile.
        pub fn with_workers(_workers: usize) -> Runtime {
            Runtime(Handle(()))
        }

        pub fn handle(&self) -> &Handle {
            &self.0
        }

        /// Runs `fut` to completion on the calling thread.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            let mut fut = std::pin::pin!(fut);
            let mut cx = Context::from_waker(Waker::noop());
            loop {
                match fut.as_mut().poll(&mut cx) {
                    Poll::Ready(v) => return v,
                    // No leaf of this crate gets here; a foreign future
                    // that yields is polled again.
                    Poll::Pending => std::thread::yield_now(),
                }
            }
        }
    }
}

pub mod time {
    //! Sleeping.

    /// Completes once `dur` has elapsed (the calling thread sleeps).
    pub async fn sleep(dur: std::time::Duration) {
        std::thread::sleep(dur);
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::runtime::Runtime;

    #[test]
    fn block_on_plain_future() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn sleep_waits_roughly_long_enough() {
        let rt = Runtime::with_workers(1);
        let start = Instant::now();
        rt.block_on(crate::time::sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
