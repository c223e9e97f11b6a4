//! What the run ran on, and how disturbed the host was while it ran — so
//! host noise can be told from benchmark noise when two result files differ.

use crate::json::Value;
use std::process::Command;
use std::time::Instant;

/// Pool width of every workload: fixed, so fits and times do not depend on
/// how many cores the host happens to have.
pub fn pool_width() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or "unknown" (the driver's
/// checkout is not a git repository, and a host may lack `rustc` on PATH).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in bytes of the last-level cache of cpu0; 0 when sysfs does not say.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |leaf: &str| std::fs::read_to_string(format!("{dir}/{leaf}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        let bytes = digits.parse::<u64>().unwrap_or(0) * scale;
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs since boot, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of the host's CPU time the hypervisor took away between two
/// readings of `/proc/stat`.
#[derive(Debug)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Iterations of the calibration loop: a dependent xorshift chain of about
/// 50 ms on a 2 GHz core (nothing the compiler can shorten).  Fixed work, so
/// its time moves only when the host does (frequency, steal, a neighbour on
/// the same core).
const CALIB_ITERATIONS: u64 = 23_500_000;

/// Times the fixed ALU loop once; called at the start of every cycle.
pub fn calibration_seconds() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..CALIB_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// A calibration spread above this marks the run `disturbed` (reported,
/// never filtered).
pub const DISTURBED_CALIB_SPREAD: f64 = 0.10;

/// The static part of the host block of a result file.
pub fn describe() -> Vec<(String, Value)> {
    vec![
        ("nproc".to_string(), Value::from(nproc() as f64)),
        ("threads_used".to_string(), Value::from(pool_width() as f64)),
        (
            "cpu_features".to_string(),
            Value::obj([
                ("avx2", Value::from(linalg::simd::avx2_available())),
                ("fma", Value::from(linalg::simd::fma_available())),
            ]),
        ),
        ("llc_bytes".to_string(), Value::from(llc_bytes() as f64)),
        (
            "git_rev".to_string(),
            Value::from(first_line_of("git", &["rev-parse", "--short", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Value::from(first_line_of("rustc", &["-V"])),
        ),
    ]
}
