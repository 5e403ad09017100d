//! Process CPU time and peak memory from Linux `/proc`, and the calling
//! thread's CPU clock.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux architecture the repository builds for).
const TICKS_PER_SEC: f64 = 100.0;

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// User plus system CPU seconds of this process so far, threads that
/// have already exited included.
pub fn self_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let (u, s) = parse_stat_ticks(&stat).expect("/proc/self/stat has utime and stime");
    (u + s) as f64 / TICKS_PER_SEC
}

/// CPU time of the calling thread so far, ms, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: time the thread ran, not
/// time it waited for a CPU.
pub fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 * 1e-6
}

/// Peak resident set of this process, MB.
pub fn self_peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// `(all, steal)` clock ticks of the whole machine from the `cpu` line
/// of `/proc/stat`: steal is time the hypervisor ran something else
/// while this machine's CPUs wanted to run.
pub fn parse_steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Machine-wide `(all, steal)` clock ticks so far; zeros when
/// `/proc/stat` cannot be read.
pub fn steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\tcampaign-bench\nVmPeak:\t  20000 kB\nVmHWM:\t   9216 kB\nVmRSS:\t 8000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(9216));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn stat_fields_are_counted_past_the_command_name() {
        let stat = "4242 (a (b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 731 42 0 0 20 0 3 0 \
                    1000 2000000 500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((731, 42)));
        assert_eq!(parse_stat_ticks("12 (x) S 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  384114 0 66869 1030665 279 0 3499 16407 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_steal_ticks(stat),
            Some((384114 + 66869 + 1030665 + 279 + 3499 + 16407, 16407))
        );
        assert_eq!(parse_steal_ticks("cpu0 1 2\n"), None);
    }

    #[test]
    fn this_process_reads_back() {
        assert!(self_peak_rss_mb() > 0.0);
        assert!(self_cpu_secs() >= 0.0);
    }

    #[test]
    fn the_thread_clock_counts_work_and_not_sleep() {
        let t = thread_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_ms() - t;
        let t = thread_cpu_ms();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = thread_cpu_ms() - t;
        assert!(slept < 5.0, "slept {slept} ms of CPU");
        assert!(worked > 0.0, "worked {worked} ms of CPU");
    }
}
