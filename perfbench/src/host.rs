//! Host diagnostics recorded in every run: hypervisor steal time, a fixed
//! reference loop, peak resident memory and the host record. None of these
//! gate a change; they tell a slow host from a slow change.

use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on every Linux
/// ABI this runs on).
const USER_HZ: f64 = 100.0;

/// Cumulative steal time of all CPUs, seconds (0 where `/proc/stat` is
/// unavailable).
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Times a fixed single-threaded integer loop, milliseconds. Its work never
/// changes, so a move in its time is the host, not the program.
pub fn reference_loop_ms() -> f64 {
    let start = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process, MB (`VmHWM`; 0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host noise bracketing one run: the reference loop and the steal counter
/// read before the workload starts and again after it ends.
pub struct HostProbe {
    ref_before_ms: f64,
    steal_before_s: f64,
}

/// What a [`HostProbe`] saw over the run.
pub struct HostNoise {
    pub ref_before_ms: f64,
    pub ref_after_ms: f64,
    pub steal_s: f64,
}

impl HostProbe {
    pub fn start() -> Self {
        let ref_before_ms = reference_loop_ms();
        Self { ref_before_ms, steal_before_s: steal_s() }
    }

    pub fn finish(self) -> HostNoise {
        let steal = (steal_s() - self.steal_before_s).max(0.0);
        HostNoise {
            ref_before_ms: self.ref_before_ms,
            ref_after_ms: reference_loop_ms(),
            steal_s: steal,
        }
    }
}
