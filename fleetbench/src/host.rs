//! Readings from `/proc`: process CPU time, host steal ticks and resident
//! memory.
//!
//! These are the run-quality diagnostics printed next to every run's
//! metrics. On a shared VM the hypervisor can steal as much CPU as the
//! guest uses, and a wall-clock figure taken during such a spell is not
//! comparable with one taken in a quiet spell; the steal share makes a
//! disturbed run visible instead of silently folding it into a median.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` is
/// 100 on every Linux architecture this benchmark targets.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, every thread
/// included (joined threads too).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that follows the parenthesis.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Aggregate host CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

/// The host's aggregate CPU tick counters right now.
pub fn host_ticks() -> HostTicks {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let values: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already included in user time, so it is not summed.
    let total = values.iter().take(8).sum();
    HostTicks {
        steal: values.get(7).copied().unwrap_or(0),
        total,
    }
}

impl HostTicks {
    /// Share of all host CPU ticks between `self` and `later` that the
    /// hypervisor stole.
    pub fn steal_share_until(self, later: HostTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A `VmHWM`/`VmRSS`-style line of `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resident set size of this process right now (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process (`VmHWM`), in MiB: since
/// process start, or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resets `VmHWM` to the current resident set size, so that a later
/// [`peak_rss_mb`] sees only what was resident from here on.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}
