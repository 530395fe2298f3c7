//! What the host gives a run: measured slices, one CPU where a
//! workload asks for it, and peak memory.
//!
//! On a shared virtual machine a neighbour's load comes and goes over
//! seconds and only ever slows a run down. Timed phases therefore run
//! in one-second slices, interleaved so that each phase's slices spread
//! over the whole run, and each metric takes the better quartile of its
//! slices (see [`crate::stats::better_quartile`]).

use std::time::Duration;

/// Length of one measured slice.
pub const SLICE: Duration = Duration::from_secs(1);

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Restricts the calling thread, and every thread and process it
/// starts from now on, to the CPU it is running on. Returns that CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: a glibc call with no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).map_err(|_| "sched_getcpu failed")?;
    // A glibc `cpu_set_t`: 1,024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU index past the affinity mask")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is live for the call and `size` is its length in
    // bytes; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}
