//! A kernel step allocates nothing on the untraced path: a run of an
//! echo protocol costs the same allocations at 10 000 syscalls as at
//! 1 000 — each process's fiber and first-use buffer growth, none per
//! step or per resume.
//!
//! The counting allocator is process-global, and so are the counts:
//! where fibers are backed by threads, the process bodies run on those
//! threads and the kernel loop on the caller's. One test in a binary of
//! its own, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mc_sim::{Kernel, NetCtx, NodeId, Poll, ProcToken, Protocol, SimConfig};

/// Counts allocations without changing them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Requests return their payload plus one, at once.
struct Echo;

impl Protocol for Echo {
    type Msg = ();
    type Req = u64;
    type Resp = u64;

    fn on_request(
        &mut self,
        _: ProcToken,
        _: NodeId,
        req: u64,
        _: &mut NetCtx<'_, ()>,
    ) -> Poll<u64> {
        Poll::Ready(req + 1)
    }

    fn on_message(&mut self, _: NodeId, _: NodeId, _: (), _: &mut NetCtx<'_, ()>) {}

    fn poll_blocked(&mut self, _: ProcToken, _: NodeId, _: &mut NetCtx<'_, ()>) -> Option<u64> {
        None
    }
}

/// Allocations of one run of `syscalls` echo requests split over two
/// processes, from kernel construction to the report.
fn allocations(syscalls: u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut kernel = Kernel::new(Echo, 2, SimConfig::with_seed(7));
    for p in 0..2 {
        kernel.spawn(NodeId(p), move |ctx| {
            let mut x = 0;
            for _ in 0..syscalls / 2 {
                x = ctx.request(x);
            }
        });
    }
    let report = kernel.run().expect("echo runs to completion");
    assert_eq!(report.metrics.events, syscalls);
    drop(report);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn ten_thousand_syscalls_allocate_no_more_than_one_thousand() {
    allocations(1_000); // first-use costs of the harness and the thread machinery
    let small = allocations(1_000);
    let large = allocations(10_000);
    assert!(large <= small, "10 000 syscalls: {large} allocations; 1 000: {small}");
}
