//! Process-level measurements: CPU time, peak resident memory and the
//! core count the results depend on.

use std::fs;

/// `struct timespec` of 64-bit Linux (`time_t` and `long` are both
/// 64 bits wide there).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "the timespec layout above is that of 64-bit Linux"
);

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    /// `clock_gettime(2)` from the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed by this process so far, all
/// threads included, at the kernel's nanosecond resolution. (`/proc`
/// offers the same figure only in 10 ms ticks, or per thread and stale
/// by up to a scheduler tick for a running thread — too coarse for one
/// 40 ms batch or one 0.4 ms round.)
///
/// # Panics
///
/// Panics if the kernel refuses the clock, which Linux never does.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout this
    // platform's C library expects (asserted above), and the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    #[allow(clippy::cast_precision_loss)]
    {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` lacks a readable `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        let spent = cpu_seconds() - before;
        assert!(
            spent > 0.0 && spent < 5.0,
            "spinning costs CPU time: {spent}"
        );
        assert!(
            peak_rss_mb() > 0.5,
            "a running test binary holds more than 0.5 MiB"
        );
        assert!(nproc() >= 1);
    }
}
