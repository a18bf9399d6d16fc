//! Fibers: bodies that suspend and resume on the thread that drives them.
//!
//! A [`Fiber`] runs a body on a stack of its own. [`Fiber::resume`] hands
//! it a value and runs it until the body suspends through the [`Yielder`]
//! it was given, or returns; either way `resume` returns what the body
//! handed back. A body may itself resume other fibers (a simulation run
//! inside a process body): each suspends to its own resumer, and the
//! resumer's context is restored after it.
//!
//! Two backends offer the same interface, chosen by target:
//!
//! * **x86_64 Linux** (`stack`): the body runs on the resumer's own
//!   thread, on a 2 MiB `mmap`ed stack with a guard page below it, which
//!   the thread keeps for its next fiber once this one is done. A
//!   switch is a function call that saves one side's callee-saved
//!   registers, MXCSR and x87 control word on its stack and restores the
//!   other side's: no system call, no thread. The values cross in the
//!   fiber's own slots.
//! * **every other target** (`thread`): the body runs on a thread of its
//!   own with a 2 MiB stack, and the resumer and the fiber hand the turn,
//!   and the value with it, back and forth under a mutex, so exactly one
//!   of them runs at a time.
//!
//! A body that overflows its stack hits the guard page and the process
//! dies of `SIGSEGV` (std names the thread only for a thread's own stack).
//! A body runs under `catch_unwind`, and `resume` re-raises its panic, so
//! no unwind crosses a switch. A fiber dropped while suspended inside its
//! body leaks its stack, and with it the body's locals (which is safe):
//! whoever owns fibers resumes each to its end first.

use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use stack::{Fiber, Yielder};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use thread::{Fiber, Yielder};

/// The usable size of a fiber's stack: the default of a spawned thread.
const STACK_SIZE: usize = 2 << 20;

/// Fiber stacks (thread stacks, on the thread backend) currently held.
static LIVE_STACKS: AtomicUsize = AtomicUsize::new(0);

/// How many fiber stacks are held now, process-wide: those of fibers not
/// yet dropped, and of any dropped while suspended. Spare stacks kept for
/// reuse are not held.
#[doc(hidden)]
pub fn live_fiber_stacks() -> usize {
    LIVE_STACKS.load(Ordering::Relaxed)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod stack {
    use std::cell::RefCell;
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::ptr;
    use std::sync::atomic::Ordering;
    use std::thread;

    use super::{LIVE_STACKS, STACK_SIZE};

    /// A body: run with the value of the first resume and its fiber's
    /// [`Yielder`], it returns what the last resume returns.
    type Body<I, O> = Box<dyn FnOnce(I, Yielder<I, O>) -> O + Send>;

    const PAGE: usize = 4096;
    /// Spare stacks a thread keeps: enough for the processes of a run and
    /// of a run nested in it, which then start without a system call.
    const SPARES: usize = 16;
    /// MXCSR and x87 control word a fiber starts with: their values at
    /// process start, which the ABI lets every function assume.
    const MXCSR: u64 = 0x1f80;
    const FPU_CW: u64 = 0x037f;

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;
    const MAP_STACK: c_int = 0x20000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    // `mc_sim_fiber_switch(save, to)` pushes the callee-saved registers
    // and the MXCSR / x87 control words of the running context, stores
    // its stack pointer in `*save`, then pops the context saved at `to`
    // and returns into it.
    //
    // `mc_sim_fiber_start` is where a new fiber's first switch returns:
    // it calls the fiber's `fiber_main`, which `new` left in r13, with
    // its `Inner`, left in r12. Its CFI marks the return address
    // undefined, so an unwinder or a backtrace stops there: the fiber's
    // stack ends at its first frame.
    std::arch::global_asm!(
        ".pushsection .text.mc_sim_fiber,\"ax\",@progbits",
        ".p2align 4",
        ".globl mc_sim_fiber_switch",
        ".hidden mc_sim_fiber_switch",
        ".type mc_sim_fiber_switch,@function",
        "mc_sim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size mc_sim_fiber_switch, . - mc_sim_fiber_switch",
        ".p2align 4",
        ".globl mc_sim_fiber_start",
        ".hidden mc_sim_fiber_start",
        ".type mc_sim_fiber_start,@function",
        "mc_sim_fiber_start:",
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
        ".size mc_sim_fiber_start, . - mc_sim_fiber_start",
        ".popsection",
    );

    extern "C" {
        fn mc_sim_fiber_switch(save: *mut *mut u8, to: *mut u8);
        fn mc_sim_fiber_start();
    }

    thread_local! {
        /// Stacks of this thread's finished fibers, for its next ones.
        static SPARE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    }

    /// What a fiber's resumer and its own stack share.
    struct Inner<I, O> {
        /// The fiber's stack pointer while it is suspended.
        sp: *mut u8,
        /// The resumer's stack pointer while the fiber runs.
        back: *mut u8,
        /// The body, until the fiber starts.
        body: Option<Body<I, O>>,
        /// What the fiber is resumed with, until it takes it.
        input: Option<I>,
        /// What the body yielded or returned, or its panic, until
        /// `resume` takes it.
        output: Option<thread::Result<O>>,
        done: bool,
    }

    /// A fiber stack: one mapping, a guard page at its low end.
    struct Stack {
        base: *mut c_void,
    }

    impl Stack {
        const LEN: usize = PAGE + STACK_SIZE;

        /// A spare stack of this thread's, else a fresh one.
        fn take() -> Stack {
            LIVE_STACKS.fetch_add(1, Ordering::Relaxed);
            SPARE_STACKS.with(|s| s.borrow_mut().pop()).unwrap_or_else(Stack::map)
        }

        /// Keeps the stack of a fiber that is not running and holds no
        /// frame on it as a spare, or unmaps it.
        fn give_back(self) {
            LIVE_STACKS.fetch_sub(1, Ordering::Relaxed);
            let _ = SPARE_STACKS.try_with(|spares| {
                let mut spares = spares.borrow_mut();
                if spares.len() < SPARES {
                    spares.push(self);
                }
            });
        }

        fn map() -> Stack {
            let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
            // SAFETY: an anonymous mapping at an address of the kernel's
            // choosing aliases no memory the program uses.
            let base =
                unsafe { mmap(ptr::null_mut(), Self::LEN, PROT_READ | PROT_WRITE, flags, -1, 0) };
            assert!(base as isize != -1, "fiber stack: {}", io::Error::last_os_error());
            // SAFETY: the first page lies inside the mapping just made, and
            // nothing refers to it.
            let guarded = unsafe { mprotect(base, PAGE, PROT_NONE) };
            let stack = Stack { base };
            assert_eq!(guarded, 0, "fiber guard page: {}", io::Error::last_os_error());
            stack
        }

        /// One past the highest byte of the stack (page-aligned).
        fn top(&self) -> *mut u64 {
            self.base.cast::<u8>().wrapping_add(Self::LEN).cast()
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base` is a live mapping of `LEN` bytes, and a stack
            // is dropped only as a spare or by `give_back`, so no frame on
            // it is live.
            unsafe { munmap(self.base, Self::LEN) };
        }
    }

    /// A body with a stack of its own, run on the resumer's thread: it
    /// is resumed with `I`s and hands back `O`s.
    pub(crate) struct Fiber<I, O> {
        /// Owned: freed by `Drop`, unless the fiber is suspended inside its
        /// body, whose frames point at it.
        inner: *mut Inner<I, O>,
        stack: Option<Stack>,
    }

    impl<I: Send + 'static, O: Send + 'static> Fiber<I, O> {
        /// A fiber that will run `body` when first resumed.
        pub(crate) fn new(body: impl FnOnce(I, Yielder<I, O>) -> O + Send + 'static) -> Self {
            let stack = Stack::take();
            let inner = Box::into_raw(Box::new(Inner {
                sp: ptr::null_mut(),
                back: ptr::null_mut(),
                body: Some(Box::new(body) as Body<I, O>),
                input: None,
                output: None,
                done: false,
            }));
            let main: extern "C" fn(*mut Inner<I, O>) -> ! = fiber_main::<I, O>;
            // The frame `mc_sim_fiber_switch` pops: control words, r15, r14,
            // r13 (`fiber_main`), r12 (the fiber's `Inner`), rbx, rbp (zero:
            // the end of the frame-pointer chain), and the return address.
            // It sits so that `mc_sim_fiber_start` runs with a 16-byte
            // aligned stack, whose `call` then gives `fiber_main` the
            // alignment of any function entry.
            let frame: [u64; 8] = [
                MXCSR | FPU_CW << 32,
                0,
                0,
                main as usize as u64,
                inner as u64,
                0,
                0,
                mc_sim_fiber_start as *const () as u64,
            ];
            // SAFETY: the ten words below `top` lie in the stack, far above
            // its guard page, and no frame is live on it; `inner` is a live
            // allocation.
            unsafe {
                let sp = stack.top().sub(10);
                sp.cast::<[u64; 8]>().write(frame);
                (*inner).sp = sp.cast();
            }
            Fiber { inner, stack: Some(stack) }
        }

        /// Runs the fiber with `input` until its body suspends or
        /// returns, and returns what it handed back.
        ///
        /// # Panics
        ///
        /// Re-raises a panic of the body; panics if the fiber is done.
        pub(crate) fn resume(&mut self, input: I) -> O {
            let inner = self.inner;
            // SAFETY: `inner` lives as long as `self`, and the fiber is
            // suspended, so nothing else reads or writes it. `sp` is its
            // suspended context: the frame `new` built, or the one its
            // last `suspend` saved. The resumer's context is saved in
            // `back`, which is where the fiber's next switch returns, so
            // the call returns normally, with the fiber suspended or done
            // again and its output stored.
            let output = unsafe {
                assert!(!(*inner).done, "resumed a finished fiber");
                (*inner).input = Some(input);
                mc_sim_fiber_switch(&raw mut (*inner).back, (*inner).sp);
                (*inner).output.take()
            };
            output.expect("a fiber hands back a value").unwrap_or_else(|p| resume_unwind(p))
        }

        /// Whether the body has returned (or panicked).
        pub(crate) fn is_done(&self) -> bool {
            // SAFETY: `inner` lives as long as `self`, and the fiber is
            // not running: `self` is borrowed here.
            unsafe { (*self.inner).done }
        }
    }

    impl<I, O> Drop for Fiber<I, O> {
        fn drop(&mut self) {
            // SAFETY: the fiber is not running, as above.
            let (started, done) = unsafe { ((*self.inner).body.is_none(), (*self.inner).done) };
            let stack = self.stack.take().expect("held until the fiber drops");
            if started && !done {
                // Frames on the stack point at `inner` and at whatever the
                // body holds: keep both for ever rather than free them.
                std::mem::forget(stack);
                return;
            }
            // SAFETY: `inner` came from `Box::into_raw`, and no frame
            // refers to it: the body never ran or has returned.
            drop(unsafe { Box::from_raw(self.inner) });
            stack.give_back();
        }
    }

    /// A running body's way back to its resumer. Only `fiber_main` makes
    /// one, for the body it starts; it is neither `Send` nor `Clone`, and
    /// the body must keep it to itself, so that `suspend` is only ever
    /// called while that body runs. (The kernel moves it into the
    /// `ProcCtx` it lends the process body and never hands it out.)
    pub(crate) struct Yielder<I, O> {
        inner: *mut Inner<I, O>,
    }

    impl<I, O> Yielder<I, O> {
        /// Suspends the fiber, handing `output` to its resumer; returns
        /// what the fiber is next resumed with.
        pub(crate) fn suspend(&mut self, output: O) -> I {
            let inner = self.inner;
            // SAFETY: `inner` belongs to the fiber running now (only its
            // body holds this `Yielder`: see above), whose resumer saved
            // its context in `back`; the fiber's own is saved in `sp`,
            // where its next `resume` returns, after storing its input.
            unsafe {
                (*inner).output = Some(Ok(output));
                mc_sim_fiber_switch(&raw mut (*inner).sp, (*inner).back);
                (*inner).input.take().expect("a fiber is resumed with a value")
            }
        }
    }

    /// A fiber's first frame: runs the body, stores how it ended, and
    /// switches back for good.
    extern "C" fn fiber_main<I, O>(inner: *mut Inner<I, O>) -> ! {
        // SAFETY: `mc_sim_fiber_start` passes the `Inner` that `new`
        // stored in the frame, alive while the fiber runs, and `resume`
        // stored the first input in it. Every local is moved or dropped
        // before the last switch, so freeing the stack afterwards drops
        // nothing.
        unsafe {
            let body = (*inner).body.take().expect("a fiber starts once");
            let input = (*inner).input.take().expect("a fiber is resumed with a value");
            let yielder = Yielder { inner };
            (*inner).output = Some(catch_unwind(AssertUnwindSafe(|| body(input, yielder))));
            (*inner).done = true;
            let mut finished = ptr::null_mut();
            mc_sim_fiber_switch(&mut finished, (*inner).back);
        }
        // `resume` refuses a finished fiber, so nothing switches back.
        std::process::abort()
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod thread {
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::{self, JoinHandle};

    use super::{LIVE_STACKS, STACK_SIZE};

    /// A body, as on the stack backend.
    type Body<I, O> = Box<dyn FnOnce(I, Yielder<I, O>) -> O + Send>;

    /// Whose turn it is to run, and what it was handed.
    enum Turn<I, O> {
        /// Whoever runs has taken what it was handed.
        Taken,
        /// The fiber's turn: it is resumed with this.
        Fiber(I),
        /// The resumer's turn: what the body handed back (or its panic),
        /// and whether it has ended.
        Resumer(thread::Result<O>, bool),
    }

    /// The turn a fiber and its resumer pass between them.
    struct Shared<I, O> {
        turn: Mutex<Turn<I, O>>,
        changed: Condvar,
    }

    impl<I, O> Shared<I, O> {
        /// Gives the turn to the other side.
        fn hand_over(&self, to: Turn<I, O>) {
            *self.turn.lock().expect("fiber turn lock") = to;
            self.changed.notify_all();
        }

        /// Waits for the fiber's turn (`fiber`) or the resumer's, and
        /// takes what came with it.
        fn take(&self, fiber: bool) -> Turn<I, O> {
            let turn = self.turn.lock().expect("fiber turn lock");
            let mut turn = self
                .changed
                .wait_while(turn, |t| match t {
                    Turn::Taken => true,
                    Turn::Fiber(_) => !fiber,
                    Turn::Resumer(..) => fiber,
                })
                .expect("fiber turn lock");
            std::mem::replace(&mut *turn, Turn::Taken)
        }

        /// The fiber's side of [`Shared::take`].
        fn take_input(&self) -> I {
            match self.take(true) {
                Turn::Fiber(input) => input,
                _ => unreachable!("the fiber's turn comes with an input"),
            }
        }
    }

    /// A body on a thread of its own, which runs only while its resumer
    /// waits: it is resumed with `I`s and hands back `O`s.
    pub(crate) struct Fiber<I, O> {
        shared: Arc<Shared<I, O>>,
        body: Option<Body<I, O>>,
        thread: Option<JoinHandle<()>>,
        done: bool,
    }

    impl<I: Send + 'static, O: Send + 'static> Fiber<I, O> {
        /// A fiber that will run `body` when first resumed.
        pub(crate) fn new(body: impl FnOnce(I, Yielder<I, O>) -> O + Send + 'static) -> Self {
            let shared =
                Arc::new(Shared { turn: Mutex::new(Turn::Taken), changed: Condvar::new() });
            Fiber { shared, body: Some(Box::new(body)), thread: None, done: false }
        }

        /// Runs the fiber with `input` until its body suspends or
        /// returns, and returns what it handed back.
        ///
        /// # Panics
        ///
        /// Re-raises a panic of the body; panics if the fiber is done.
        pub(crate) fn resume(&mut self, input: I) -> O {
            assert!(!self.done, "resumed a finished fiber");
            if let Some(body) = self.body.take() {
                let shared = self.shared.clone();
                let thread = thread::Builder::new()
                    .stack_size(STACK_SIZE)
                    .spawn(move || {
                        let input = shared.take_input();
                        let yielder = Yielder { shared: shared.clone(), not_send: PhantomData };
                        let result = catch_unwind(AssertUnwindSafe(|| body(input, yielder)));
                        shared.hand_over(Turn::Resumer(result, true));
                    })
                    .expect("fiber thread spawn");
                LIVE_STACKS.fetch_add(1, Ordering::Relaxed);
                self.thread = Some(thread);
            }
            self.shared.hand_over(Turn::Fiber(input));
            let Turn::Resumer(output, done) = self.shared.take(false) else {
                unreachable!("the resumer's turn comes with an output")
            };
            if done {
                self.done = true;
                let thread = self.thread.take().expect("a started fiber");
                thread.join().expect("the body's panic is caught");
                LIVE_STACKS.fetch_sub(1, Ordering::Relaxed);
            }
            output.unwrap_or_else(|payload| resume_unwind(payload))
        }

        /// Whether the body has returned (or panicked).
        pub(crate) fn is_done(&self) -> bool {
            self.done
        }
    }

    /// A running body's way back to its resumer, kept to itself by the
    /// body it was made for, as on the stack backend.
    pub(crate) struct Yielder<I, O> {
        shared: Arc<Shared<I, O>>,
        /// As on the stack backend.
        not_send: PhantomData<*const ()>,
    }

    impl<I, O> Yielder<I, O> {
        /// Suspends the fiber, handing `output` to its resumer; returns
        /// what the fiber is next resumed with.
        pub(crate) fn suspend(&mut self, output: O) -> I {
            self.shared.hand_over(Turn::Resumer(Ok(output), false));
            self.shared.take_input()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    /// Recurses until the stack has grown by `bytes`, and returns the
    /// depth reached.
    pub(crate) fn recurse(bytes: usize) -> usize {
        let marker = 0u8;
        dig(std::hint::black_box(&marker) as *const u8 as usize, bytes)
    }

    fn dig(top: usize, bytes: usize) -> usize {
        let frame = [0u8; 256];
        let here = std::hint::black_box(&frame) as *const [u8; 256] as usize;
        if top - here >= bytes {
            return 1;
        }
        // The frame stays live across the call, so the recursion stays one.
        let below = dig(top, bytes);
        std::hint::black_box(&frame);
        below + 1
    }

    /// The same tests, run against each backend this target has.
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use std::panic::{catch_unwind, AssertUnwindSafe};
                use std::sync::{Arc, Mutex};

                use crate::fiber::$backend::{Fiber, Yielder};

                fn log() -> (Arc<Mutex<Vec<&'static str>>>, Arc<Mutex<Vec<&'static str>>>) {
                    let log = Arc::new(Mutex::new(Vec::new()));
                    (log.clone(), log)
                }

                #[test]
                fn resume_runs_to_each_yield_then_to_the_end() {
                    let (log, seen) = log();
                    let mut fiber = Fiber::new(move |(), mut y: Yielder<(), ()>| {
                        log.lock().unwrap().push("a");
                        y.suspend(());
                        log.lock().unwrap().push("b");
                        y.suspend(());
                        log.lock().unwrap().push("c");
                    });
                    assert!(
                        seen.lock().unwrap().is_empty(),
                        "nothing runs before the first resume"
                    );
                    for (step, expected) in
                        [["a"].as_slice(), &["a", "b"], &["a", "b", "c"]].into_iter().enumerate()
                    {
                        assert!(!fiber.is_done(), "step {step}");
                        fiber.resume(());
                        assert_eq!(*seen.lock().unwrap(), expected, "step {step}");
                    }
                    assert!(fiber.is_done());
                }

                #[test]
                fn values_cross_each_switch_both_ways() {
                    let mut fiber = Fiber::new(|first: u32, mut y: Yielder<u32, String>| {
                        let second = y.suspend(format!("got {first}"));
                        let third = y.suspend(format!("got {second}"));
                        format!("sum {}", first + second + third)
                    });
                    assert_eq!(fiber.resume(1), "got 1");
                    assert_eq!(fiber.resume(20), "got 20");
                    assert!(!fiber.is_done());
                    assert_eq!(fiber.resume(300), "sum 321");
                    assert!(fiber.is_done());
                }

                #[test]
                fn a_panic_in_the_body_reaches_the_resumer() {
                    let mut fiber = Fiber::new(|(), mut y: Yielder<(), ()>| {
                        y.suspend(());
                        std::panic::panic_any(7u32);
                    });
                    fiber.resume(());
                    let payload = catch_unwind(AssertUnwindSafe(|| fiber.resume(()))).unwrap_err();
                    assert_eq!(payload.downcast_ref::<u32>(), Some(&7));
                    assert!(fiber.is_done());
                }

                #[test]
                fn a_fiber_resumes_fibers_of_its_own() {
                    let (log, seen) = log();
                    let mut outer = Fiber::new(move |(), mut y: Yielder<(), ()>| {
                        let inner_log = log.clone();
                        let mut inner = Fiber::new(move |(), mut y: Yielder<(), ()>| {
                            inner_log.lock().unwrap().push("inner 1");
                            y.suspend(());
                            inner_log.lock().unwrap().push("inner 2");
                        });
                        inner.resume(());
                        log.lock().unwrap().push("outer between");
                        y.suspend(());
                        inner.resume(());
                        assert!(inner.is_done());
                        log.lock().unwrap().push("outer end");
                    });
                    outer.resume(());
                    assert_eq!(*seen.lock().unwrap(), ["inner 1", "outer between"]);
                    outer.resume(());
                    assert_eq!(
                        *seen.lock().unwrap(),
                        ["inner 1", "outer between", "inner 2", "outer end"]
                    );
                    assert!(outer.is_done());
                }

                #[test]
                fn a_body_recurses_through_a_mebibyte() {
                    let mut fiber = Fiber::new(|(), _: Yielder<(), usize>| super::recurse(1 << 20));
                    assert!(fiber.resume(()) > 0);
                    assert!(fiber.is_done());
                }

                #[test]
                fn a_backtrace_inside_a_fiber_ends_cleanly() {
                    let mut fiber = Fiber::new(|(), _: Yielder<(), ()>| {
                        let trace = std::backtrace::Backtrace::force_capture();
                        assert!(!trace.to_string().is_empty());
                        panic!("after the backtrace");
                    });
                    let payload = catch_unwind(AssertUnwindSafe(|| fiber.resume(()))).unwrap_err();
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"after the backtrace"));
                }

                #[test]
                fn dropping_an_unstarted_fiber_drops_its_body() {
                    struct Flag(Arc<Mutex<bool>>);
                    impl Drop for Flag {
                        fn drop(&mut self) {
                            *self.0.lock().unwrap() = true;
                        }
                    }
                    let dropped = Arc::new(Mutex::new(false));
                    let flag = Flag(dropped.clone());
                    let fiber = Fiber::new(move |(), _: Yielder<(), ()>| drop(flag));
                    drop(fiber);
                    assert!(*dropped.lock().unwrap());
                }

                #[test]
                fn resuming_a_finished_fiber_panics() {
                    let mut fiber = Fiber::new(|(), _: Yielder<(), ()>| {});
                    fiber.resume(());
                    assert!(catch_unwind(AssertUnwindSafe(|| fiber.resume(()))).is_err());
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    backend_tests!(stack);
    backend_tests!(thread);
}
