//! The clocks the benchmark reads: one monotonic wall clock shared by the
//! generator and every operator wrapper, process and thread CPU time, and
//! the process's peak resident memory.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's epoch (fixed by the first call).
/// Every due time, completion stamp and span uses this one clock.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Let the calling thread's sleeps end on time: Linux may delay a sleeping
/// thread's wake-up by its timer slack (50 µs by default) to batch
/// timers; the open-loop generator sleeps between events tens of
/// microseconds apart, so it asks for 1 ns.
pub fn precise_sleeps() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches only the
    // calling thread's scheduling attributes; the unused arguments are 0.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if rc != 0 {
        eprintln!("perfbench: could not lower the timer slack; generator sleeps may run late");
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this crate builds for), and the
    // clock ids are the fixed Linux CPU-time clocks, which always exist.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance() {
        let (w0, c0, t0) = (now_ns(), process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(now_ns() > w0);
        assert!(process_cpu_ns() > c0);
        assert!(thread_cpu_ns() > t0);
        assert!(peak_rss_mb() > 0.0);
    }
}
