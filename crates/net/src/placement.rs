//! Where a node's threads run: its link threads on one CPU — and with
//! them the managers, which run on their readers — and the process
//! threads on the others.
//!
//! A frame's way from one node to another is a chain of wake-ups —
//! sender (or writer) → socket → reader → inbox → process — with next to
//! no work between them, so a hop costs what its wake-ups cost, and one
//! that brings another CPU out of idle costs several times one that
//! stays put. Left to the kernel, the threads land differently in every
//! run, and differently again after the machine has sat idle; a round
//! trip then costs whatever the draw was. With both kinds of thread
//! placed, every operation crosses CPUs the same number of times
//! (DESIGN.md §4.5).
//!
//! A new thread inherits the affinity of the thread that starts it, so
//! placing the calling thread before it spawns is all it takes. On
//! Linux with at most 64 CPUs; elsewhere the kernel places the threads.

/// The calling thread's allowed CPUs (one bit each) when the placement
/// began — given back on drop — and the CPU it was running on.
pub(crate) struct Placement(Option<(u64, u32)>);

impl Placement {
    /// Starts placing the threads the calling thread spawns.
    pub(crate) fn begin() -> Placement {
        Placement(cpu::here())
    }

    /// Threads spawned from here on share one CPU: the one the calling
    /// thread was on at [`begin`](Placement::begin).
    pub(crate) fn links(&self) {
        if let Some((_, home)) = self.0 {
            cpu::confine(1 << home);
        }
    }

    /// Threads spawned from here on, and the calling thread, keep off
    /// that CPU, unless it is the only one allowed.
    pub(crate) fn nodes(&self) {
        if let Some((all, home)) = self.0 {
            let rest = all & !(1 << home);
            cpu::confine(if rest == 0 { all } else { rest });
        }
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        if let Some((all, _)) = self.0 {
            cpu::confine(all);
        }
    }
}

/// The affinity calls, declared by hand: libc is not a dependency.
#[cfg(target_os = "linux")]
mod cpu {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on and the one it is on;
    /// `None` when 64 bits cannot hold the machine's CPUs.
    pub(super) fn here() -> Option<(u64, u32)> {
        let mut allowed = 0u64;
        // SAFETY: pid 0 is the calling thread; `allowed` is 8 writable
        // bytes, and the kernel refuses a mask too short for its CPUs.
        let known = unsafe { sched_getaffinity(0, 8, &mut allowed) } == 0;
        // SAFETY: no arguments, no memory touched.
        let on = u32::try_from(unsafe { sched_getcpu() }).ok().filter(|&cpu| cpu < 64)?;
        known.then_some((allowed, on))
    }

    /// Confines the calling thread to `mask`. Best effort: a refused
    /// mask leaves the thread where the kernel had it.
    pub(super) fn confine(mask: u64) {
        // SAFETY: pid 0 is the calling thread; `mask` is 8 readable bytes.
        unsafe { sched_setaffinity(0, 8, &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub(super) fn here() -> Option<(u64, u32)> {
        None
    }
    pub(super) fn confine(_mask: u64) {}
}
