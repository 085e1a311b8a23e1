//! Process accounting: CPU time from the process clock, resident set from
//! `/proc/self/status`.

/// `struct timespec` on the 64-bit Linux targets this repository builds
/// for: `time_t` and `long` are both 64 bits wide there.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has consumed, every thread
/// included, those that have exited too. `/proc/self/stat` holds the same
/// total but in 10 ms clock ticks — a tenth of what one short repetition
/// burns; std offers no finer reading, the C library this binary already
/// links does.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The `kB` value of one `/proc/<pid>/status` key (`VmHWM`, `VmRSS`).
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

fn status_mb(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_kb(&status, key).expect("/proc/self/status has the Vm* keys") as f64 / 1024.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_charges_every_thread_at_fine_grain() {
        // Busy work on another thread is charged to the process, and a
        // reading resolves far below the 10 ms tick of `/proc/self/stat`.
        let before = cpu_seconds();
        std::thread::spawn(|| {
            let started = std::time::Instant::now();
            let mut x = 1u64;
            while started.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        })
        .join()
        .unwrap();
        let worked = cpu_seconds() - before;
        assert!(worked > 0.01, "30 ms of spinning charged only {worked} s");
        assert_ne!(
            (worked * 1e6).round() % 10_000.0,
            0.0,
            "tick-grained: {worked}"
        );
    }

    #[test]
    fn status_keys_parse_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  20480 kB\nVmRSS:\t   1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        let rss = rss_mb();
        assert!(rss > 0.0 && peak_rss_mb() >= rss);
    }
}
