//! The owner of a transport's link threads: it starts and names them,
//! remembers what each one parks on, and on drop tears them down —
//! drain, then join.
//!
//! Every link thread parks in one blocking call, and teardown wakes it
//! there:
//!
//! - an accept loop parks in `accept`: teardown dials its listener once,
//!   the loop sees the owner stopping and ends, and the port closes;
//! - a reader parks in `read`: teardown shuts its stream down for
//!   reading, and the read returns EOF;
//! - a writer parks on its queue: it writes out what is queued and ends
//!   once the transport, which holds every sender, is gone. So the owner
//!   must drop after the transport. A writer still redialling gives up
//!   at its next attempt.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Stack of a link thread. The loops keep their buffers on the heap,
/// and a full mesh of default 2 MiB stacks cost 10.6 % `peak_rss_mb`.
const LINK_STACK: usize = 256 * 1024;

/// What a link thread parks on, and so how teardown wakes it.
pub(crate) enum Parked {
    /// `accept` on the listener at this address: one dial wakes it.
    Accept(SocketAddr),
    /// `read` on this accepted stream: `shutdown(Read)` wakes it.
    Read(TcpStream),
    /// Its link queue, which closes with the transport.
    Write,
}

#[derive(Default)]
struct State {
    stopping: bool,
    threads: Vec<(JoinHandle<()>, Parked)>,
}

/// Starts link threads: for an owner, which then joins them, or —
/// detached — for nobody.
#[derive(Clone)]
pub(crate) struct Spawner(Option<Arc<Mutex<State>>>);

impl Spawner {
    /// Every critical section is a few field updates, so a poisoned
    /// lock still guards valid state.
    fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
        state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts `body` on a link thread called `name`, which parks on
    /// `parked`. `false`, and `body` dropped unrun, once the owner is
    /// stopping.
    pub(crate) fn spawn(
        &self,
        name: &str,
        parked: Parked,
        body: impl FnOnce() + Send + 'static,
    ) -> bool {
        let start = || {
            std::thread::Builder::new()
                .name(name.into())
                .stack_size(LINK_STACK)
                .spawn(body)
                .expect("spawn a link thread")
        };
        let Some(state) = &self.0 else {
            start();
            return true;
        };
        let mut state = Self::lock(state);
        if state.stopping {
            return false;
        }
        state.threads.retain(|(thread, _)| !thread.is_finished());
        state.threads.push((start(), parked));
        true
    }

    /// Whether the owner is tearing the threads down.
    pub(crate) fn stopping(&self) -> bool {
        self.0.as_ref().is_some_and(|state| Self::lock(state).stopping)
    }
}

/// The link threads of one transport. Hand it to
/// [`listen`](crate::transport::listen) and
/// [`TcpTransportBuilder::dial`](crate::TcpTransportBuilder::dial), and
/// drop it after the transport: no link thread and no listening port
/// outlives it.
pub struct Links(pub(crate) Spawner);

impl Links {
    /// An owner with no threads yet.
    pub fn new() -> Links {
        Links(Spawner(Some(Arc::default())))
    }

    /// Starts threads nobody joins (the legacy names of `benchmark/`).
    pub(crate) fn detached() -> Links {
        Links(Spawner(None))
    }
}

impl Default for Links {
    fn default() -> Links {
        Links::new()
    }
}

impl Drop for Links {
    /// Drain, then join: parked threads are woken and end, writers
    /// finish their queues, and every thread is joined.
    fn drop(&mut self) {
        let Some(state) = &self.0 .0 else { return };
        let threads = {
            let mut state = Spawner::lock(state);
            state.stopping = true;
            std::mem::take(&mut state.threads)
        };
        for (_, parked) in &threads {
            match parked {
                Parked::Accept(addr) => {
                    let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
                }
                Parked::Read(stream) => {
                    let _ = stream.shutdown(Shutdown::Read);
                }
                Parked::Write => {}
            }
        }
        for (thread, _) in threads {
            let _ = thread.join();
        }
    }
}
