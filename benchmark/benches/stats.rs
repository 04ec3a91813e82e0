//! Order statistics over the benchmark's own samples, and the `/proc`
//! readers behind the host rows. Everything here is measured from outside
//! the program: no crate under `crates/` is asked for a time.

use std::time::Instant;

/// `p`-quantile (0..=1) of an unsorted sample by nearest rank; 0.0 when
/// the sample is empty.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * p).round() as usize]
}

/// Median of an unsorted sample.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which of a run's samples is reported: the best one. This benchmark
/// runs on two virtual CPUs of a shared host, and other guests slow the
/// program down in plateaus that last from a second to minutes and cost up
/// to 2.6 times (the same closed loop sits at 86 000, 75 000, 58 000 or
/// 47 000 requests a second for seconds at a time; a 512 KiB random-access
/// loop beside it takes 0.30, 0.42 or 1.3 ms while a register-only loop
/// does not move by 3 %: whoever shares the core evicts the cache).
/// Interference never speeds anything up, and the fast plateau repeats:
/// on a host busy enough that the median block of `small-tcp` moved
/// between 38 000 and 45 000 requests a second over eight runs, their best
/// blocks stayed within 3 % of 59 000, their 3rd-best within 5 %, their
/// 8th-best within 6 %. So a rate is reported as the fastest block of the
/// run and a time as the shortest — what the code does on a quiet machine,
/// seen as long as one block of the run (50 to 300 ms) was quiet. The
/// price: a change that only slows the program's own slow moments does not
/// show in these numbers (the notes print medians too).
pub fn best_rate(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn best_time(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Coefficient of variation (sd ÷ mean); 0.0 for fewer than two values.
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    if mean > 0.0 {
        var.sqrt() / mean
    } else {
        0.0
    }
}

/// Latency samples, kept as 32-bit nanoseconds (anything over 4.29 s is
/// kept as that) and reported in microseconds: an open loop keeps two of
/// these per request, and at eight bytes a sample they were most of
/// `peak_rss_mb` on the small workloads.
#[derive(Default)]
pub struct Latencies(Vec<u32>);

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns.min(u32::MAX as u64) as u32);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    /// `p`-quantile in microseconds, by nearest rank.
    pub fn us(&mut self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.sort_unstable();
        self.0[((self.0.len() - 1) as f64 * p).round() as usize] as f64 / 1e3
    }

    pub fn max_us(&self) -> f64 {
        self.0.iter().copied().max().unwrap_or(0) as f64 / 1e3
    }
}

/// CPU time this process has used so far, all threads, in nanoseconds:
/// `CLOCK_PROCESS_CPUTIME_ID`, which the kernel keeps from scheduler run
/// times. (`utime + stime` of `/proc/self/stat` counts 10 ms ticks: a
/// hundredth of a second of resolution is a tenth of a 100 ms block.)
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        // From the C library std already links; same layout on every
        // 64-bit Linux target.
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable timespec for the whole call and the
    // kernel writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    if rc == 0 {
        t.sec as u64 * 1_000_000_000 + t.nsec as u64
    } else {
        0
    }
}

/// One reading of the host counters a phase is bracketed with.
#[derive(Clone, Copy)]
pub struct HostSample {
    at: Instant,
    cpu_ns: u64,
    /// Steal and total jiffies of the whole machine.
    steal: u64,
    total: u64,
    invol_ctx: u64,
}

impl HostSample {
    pub fn now() -> Self {
        let (mut steal, mut total) = (0, 0);
        if let Some(line) = std::fs::read_to_string("/proc/stat")
            .unwrap_or_default()
            .lines()
            .next()
        {
            let v: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|s| s.parse().ok())
                .collect();
            // user nice system idle iowait irq softirq steal [guest ...];
            // guest time is already inside user.
            total = v.iter().take(8).sum();
            steal = v.get(7).copied().unwrap_or(0);
        }
        Self {
            at: Instant::now(),
            cpu_ns: process_cpu_ns(),
            steal,
            total,
            invol_ctx: status_field("nonvoluntary_ctxt_switches:"),
        }
    }

    /// Process CPU microseconds between `earlier` and `self`.
    pub fn cpu_us_since(&self, earlier: &Self) -> f64 {
        (self.cpu_ns - earlier.cpu_ns) as f64 / 1e3
    }

    /// Share of machine time the hypervisor took from this guest.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }

    /// Involuntary context switches per second of the main thread.
    pub fn invol_ctx_per_s_since(&self, earlier: &Self) -> f64 {
        let secs = self.at.duration_since(earlier.at).as_secs_f64();
        if secs > 0.0 {
            self.invol_ctx.saturating_sub(earlier.invol_ctx) as f64 / secs
        } else {
            0.0
        }
    }
}

fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// Where the benchmark's threads run: all on one CPU at a time, under
/// `SCHED_BATCH`, and on the other of the machine's last two CPUs every
/// other round.
///
/// Why one CPU: on the small shared VMs this benchmark runs on, a wake-up
/// that crosses vCPUs costs more than the work it hands over, and its
/// cost moves with placement. Why `SCHED_BATCH`: under the default policy
/// whether a wake-up preempts the waker depends on accumulated run-time
/// lag, and one binary settles for seconds at a time into hand-off
/// patterns that differ twofold in cost per request; `SCHED_BATCH` never
/// preempts on wake-up, so hand-offs always happen in runs. The price is
/// that nothing here measures parallel speed-up or wake-up preemption.
///
/// Why alternate: what slows a virtual CPU down for seconds to minutes
/// (see [`best_rate`]) is whoever shares its physical core, and the
/// two virtual CPUs have different neighbours. With two probes running
/// side by side for five minutes each CPU was in its fast state about
/// half of the time and at least one of them 70 % of it, in stretches of
/// up to 20 s where only one was. A run that visits both sees a quiet
/// stretch more often than a run that stays.
pub struct Placement {
    /// Highest-numbered allowed CPU first; empty when pinning failed.
    cpus: Vec<usize>,
}

extern "C" {
    // From the C library std already links.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Restrict thread `tid` (0: the caller) to `cpu`.
fn set_affinity(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes at `mask`, which
    // is exactly that long and lives across the call.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

impl Placement {
    /// Pin the calling thread — the only one so far; threads spawned later
    /// inherit both settings — to the highest-numbered CPU it is allowed
    /// on and switch it to `SCHED_BATCH`.
    pub fn new() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        // "0-1", "0,2-3", ...
        let mut cpus: Vec<usize> = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or_default()
            .trim()
            .split(',')
            .filter_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
            })
            .flatten()
            .collect();
        cpus.sort_unstable_by(|a, b| b.cmp(a));
        cpus.truncate(2);
        const SCHED_BATCH: i32 = 3;
        let priority = 0i32;
        // SAFETY: `sched_param` is one int, read by the kernel during the
        // call only.
        let batch = unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 };
        if !(batch && cpus.first().is_some_and(|&c| set_affinity(0, c))) {
            cpus.clear();
        }
        Self { cpus }
    }

    /// What the first output line says about it.
    pub fn describe(&self) -> String {
        match self.cpus[..] {
            [] => "NOT pinned to one CPU under SCHED_BATCH (expect a wide spread)".into(),
            [only] => format!("pinned to CPU {only} under SCHED_BATCH"),
            [a, b, ..] => format!(
                "on one CPU at a time under SCHED_BATCH (CPUs {a} and {b} in turn, by round)"
            ),
        }
    }

    /// Move every thread of the process to the CPU of round `round`.
    pub fn start_round(&self, round: usize) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[round % self.cpus.len()];
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for tid in tasks
            .flatten()
            .filter_map(|t| t.file_name().to_str()?.parse::<i32>().ok())
        {
            // A thread that exited since the listing is not an error.
            set_affinity(tid, cpu);
        }
    }
}
