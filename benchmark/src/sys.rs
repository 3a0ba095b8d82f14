//! Process-wide CPU time, context switches and peak memory from
//! `getrusage(2)`. Unlike `/proc/self/*` it covers every thread of the
//! process, including service threads that have already been joined.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Cumulative resource use of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` with the layout
        // the kernel ABI fixes for this target (checked by the cfg above),
        // and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
        }
    }

    /// Resource use since `earlier` (peak memory stays a level, not a
    /// difference).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.ctx_switches += other.ctx_switches;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Share of the machine's CPU time since `earlier` that the hypervisor gave
/// to someone else (`steal` over all columns of the first line of
/// `/proc/stat`), and the tick counts to take the next difference from. A
/// host without that file, or without steal accounting, reads 0.
pub fn stolen_share(earlier: &mut (u64, u64)) -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map_while(|t| t.parse().ok())
        .collect();
    let now = (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum::<u64>(),
    );
    let (stolen, all) = (
        now.0.saturating_sub(earlier.0),
        now.1.saturating_sub(earlier.1),
    );
    *earlier = now;
    if all == 0 {
        0.0
    } else {
        stolen as f64 / all as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_and_peak_memory_advance_with_work() {
        let before = Usage::now();
        let mut x = 0u64;
        let mut v = Vec::new();
        while Usage::now().since(&before).cpu_s() < 0.02 {
            for i in 0..100_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            v.push(std::hint::black_box(x));
        }
        let used = Usage::now().since(&before);
        assert!(used.cpu_s() >= 0.02 && used.cpu_s() < 5.0, "{used:?}");
        assert!(used.peak_rss_mb > 1.0, "{used:?}");
    }

    #[test]
    fn stolen_share_is_a_share_of_the_ticks_since_the_last_call() {
        let mut ticks = (0, 0);
        let since_boot = stolen_share(&mut ticks);
        assert!((0.0..=1.0).contains(&since_boot), "{since_boot}");
        let since_then = stolen_share(&mut ticks);
        assert!((0.0..=1.0).contains(&since_then), "{since_then}");
    }
}
