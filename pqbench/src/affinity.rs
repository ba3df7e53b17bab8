//! Pins the benchmark to one core.
//!
//! On the 2-vCPU sandbox a loopback round trip costs ~110 µs when the
//! client and the server's threads share a core and ~270 µs when the
//! scheduler spreads them (every hand-off is then a cross-core wake-up
//! out of idle); which one a run gets changes from minute to minute. One
//! closed-loop client keeps one thread runnable at a time, so one core
//! is the steady configuration — and the one the report states.

use std::ffi::c_int;

/// Bytes of a `cpu_set_t` (1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u8) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u8) -> c_int;
}

/// Restricts this process (and every thread it starts later) to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` when
/// the kernel refuses — the run then proceeds unpinned and says so.
pub fn pin_to_one_core() -> Option<usize> {
    let mut allowed = [0u8; SET_BYTES];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // the kernel writes at most that many bytes. Pid 0 is this thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..SET_BYTES * 8)
        .rev()
        .find(|&cpu| allowed[cpu / 8] & (1 << (cpu % 8)) != 0)?;
    let mut only = [0u8; SET_BYTES];
    only[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `only` is a readable buffer of exactly the size passed.
    (unsafe { sched_setaffinity(0, SET_BYTES, only.as_ptr()) } == 0).then_some(cpu)
}
