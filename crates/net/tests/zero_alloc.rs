//! Pins the zero-copy claims of the wire hot path.
//!
//! Two angles on the same invariant — a message travelling the TCP
//! transport costs no per-message heap traffic in steady state:
//!
//! 1. A counting global allocator wraps the system allocator and the
//!    encode → frame-split → decode → drop cycle runs 10 000 times
//!    against a reused arena. After warm-up the loop must perform
//!    **zero** allocations: encoding writes into reclaimed arena
//!    capacity, the frame is a refcounted view, and decoding a dense
//!    frame borrows from the receive buffer.
//! 2. A real two-process loopback cluster pushes a 10 000-write storm,
//!    unbatched and under `BatchPolicy::default()`, and the buffer
//!    pool's global counters must show reuse dominating allocation — the
//!    per-link encode arenas, writers' gather buffers and receive buffers
//!    recycle their regions instead of growing the heap.
//!
//! The allocation counter only counts the thread that asked to be
//! measured: the allocator is process-global, and the test harness and
//! the other test's still-exiting runtime threads allocate whenever they
//! please. The pool counters are process-global by design (the storm's
//! work happens on runtime threads), so the tests still serialize on
//! one mutex rather than trusting the harness's thread scheduling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::{pool_stats, BytesMut};
use mc_model::{Loc, ProcId, Value, WriteId};
use mc_net::Tcp;
use mc_proto::wire::{decode_frame, encode_frame, Frame, FRAME_HEADER};
use mc_proto::{BatchPolicy, Mode, Msg, UpdatePayload};

/// Counts the measuring thread's allocations without changing them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations count. Const-initialised and
    /// without a destructor, so reading it inside the allocator neither
    /// allocates nor touches a torn-down slot.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measured() {
    if MEASURED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Serializes the tests: both read process-global counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// One transport send/receive cycle, exactly as `Link::push` and the
/// reader loop perform it: encode into the arena, split the frame off
/// as a view, decode the body in place, drop the view.
fn cycle(arena: &mut BytesMut, msg: &Msg) {
    encode_frame(arena, msg);
    let len = arena.len();
    let frame = arena.split_to(len);
    match decode_frame(&frame[FRAME_HEADER..]).expect("self-encoded frame decodes") {
        Frame::Msg(Msg::Update {
            writer,
            loc,
            payload: UpdatePayload::Set(Value::Int(v)),
            deps: None,
        }) => {
            assert_eq!(writer, WriteId::new(ProcId(0), 7));
            assert_eq!(loc, Loc(3));
            assert_eq!(v, 42);
        }
        _ => panic!("round trip changed the frame"),
    }
    drop(frame);
}

#[test]
fn steady_state_wire_cycle_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap();
    let msg = Msg::Update {
        writer: WriteId::new(ProcId(0), 7),
        loc: Loc(3),
        payload: UpdatePayload::Set(Value::Int(42)),
        deps: None,
    };
    let mut arena = BytesMut::with_capacity(4096);
    // Warm-up: let the arena reach its steady footprint.
    for _ in 0..64 {
        cycle(&mut arena, &msg);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURED.with(|m| m.set(true));
    for _ in 0..10_000 {
        cycle(&mut arena, &msg);
    }
    MEASURED.with(|m| m.set(false));
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "the encode/decode hot path must not touch the allocator in steady state"
    );
}

/// A 10 000-write storm on a two-process TCP cluster under `batch`:
/// the buffer pool's `(allocations, reuses)` over the run.
fn tcp_storm(batch: Option<BatchPolicy>) -> (u64, u64) {
    let _guard = SERIAL.lock().unwrap();
    let (allocs0, reuses0) = pool_stats();
    let mut sys = mixed_consistency::System::on(Tcp, 2, Mode::Causal).batching(batch);
    sys.spawn(|ctx| {
        for i in 1..=10_000 {
            ctx.write(Loc(0), i);
        }
    });
    sys.spawn(|ctx| {
        ctx.await_eq(Loc(0), Value::Int(10_000));
    });
    sys.run().expect("storm cluster runs");
    let (allocs1, reuses1) = pool_stats();
    let (allocs, reuses) = (allocs1 - allocs0, reuses1 - reuses0);
    println!("10k-write storm, batching {batch:?}: {allocs} fresh regions, {reuses} reuses");
    (allocs, reuses)
}

#[test]
fn tcp_storm_reuses_pool_buffers() {
    let (allocs, reuses) = tcp_storm(None);
    // Most frames never touch the pool at all: split_to carves views
    // out of the current region and reserve only acts when a region
    // fills. Per-message allocation would show up as thousands of
    // fresh regions here; the actual cost is a handful of arenas and
    // receive buffers plus rare migrations, amortized to ~zero per
    // message — and when a region does cycle, reclaim beats malloc.
    assert!(
        allocs <= 100,
        "a 10k-op TCP run must not allocate per message: {allocs} fresh regions"
    );
    // How often reclaim wins over migration is timing-dependent (a
    // region migrates when a frame is still in flight at reserve
    // time), so only the reclaim path's engagement is pinned, not a
    // ratio.
    assert!(reuses > 0, "the reclaim path never engaged over a 10k-op TCP run");
}

/// The same storm batched: batch frames through each link's encode
/// arena and its writer's gather buffer, which must be reclaimed in place
/// and not allocated per write.
#[test]
fn batched_tcp_storm_reuses_pool_buffers() {
    let (allocs, reuses) = tcp_storm(Some(BatchPolicy::default()));
    assert!(
        allocs <= 100,
        "a batched 10k-op TCP run must not allocate per message: {allocs} fresh regions"
    );
    assert!(reuses > 0, "the reclaim path never engaged over a batched 10k-op TCP run");
}
