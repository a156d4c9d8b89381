//! What the benchmark records about the box it ran on: a fingerprint for
//! the results file, the process's peak resident set, CPU time stolen by
//! the hypervisor, and a fixed calibration kernel whose drift over a run
//! tells a drifted machine from a regression.

use std::fs;
use std::hint::black_box;
use std::process::Command;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The commit of the checkout the benchmark was built in; "unknown" in a
/// checkout that is not a git repository.
pub fn commit() -> String {
    command_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short", "HEAD"])
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, total) jiffies summed over all CPUs since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else { return (0, 0) };
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user, so it stays out of the total.
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// A fixed mix of sequential scan, random probe and dependent ALU work
/// (about a millisecond), independent of the engine and of the seed.
pub struct Calibration {
    scan: Vec<u64>,
    table: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Calibration {
            scan: (0..128 * 1024).map(|_| next()).collect(),
            table: (0..64 * 1024).map(|_| next() as u32 & 0xFFFF).collect(),
        }
    }

    pub fn run(&self) -> u64 {
        let scan: u64 = black_box(&self.scan).iter().fold(0, |a, &v| a.wrapping_add(v));
        let table = black_box(&self.table);
        let mut at = 1u32;
        for _ in 0..48 * 1024 {
            at = table[at as usize].wrapping_add(at >> 3) & 0xFFFF;
        }
        let mut alu = scan | 1;
        for _ in 0..96 * 1024 {
            alu = alu.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ at as u64;
        }
        black_box(alu)
    }
}
