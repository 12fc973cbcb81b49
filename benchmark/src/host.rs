//! What the harness needs from the host: CPU pinning, peak memory and
//! the provenance stamped on every result.

use std::process::Command;

use crate::json::Json;

/// 1 024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // Declared here because std already links libc and the benchmark
    // may add no crate.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn get_affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed and the
    // kernel only reads it; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_affinity() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_set: &CpuSet) -> bool {
    false
}

/// Pins the calling thread — and every thread it spawns while the guard
/// lives — to one CPU; the previous mask returns when the guard drops.
///
/// The simulator hands control between host threads one at a time, and
/// its speed is bimodal (5×) depending on whether the host scheduler
/// happens to co-locate them; the micro-cells are single-threaded or
/// ping-pong pairs with the same sensitivity. One CPU removes the coin.
pub struct Pin {
    previous: Option<CpuSet>,
}

impl Pin {
    /// Pin to the highest-numbered CPU the process may run on (CPU 0
    /// tends to take the host's interrupts). If the host refuses, the
    /// guard is inert and [`Pin::pinned`] says so.
    pub fn to_one_cpu() -> Pin {
        let pin_within = |allowed: &CpuSet| {
            let cpu = (0..1024)
                .rev()
                .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
            let mut one: CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            set_affinity(&one).then_some(*allowed)
        };
        Pin {
            previous: get_affinity().as_ref().and_then(pin_within),
        }
    }

    pub fn pinned(&self) -> bool {
        self.previous.is_some()
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            set_affinity(previous);
        }
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build facts that decide whether two results are comparable.
pub fn provenance() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("host_cores", Json::Num(cores as f64)),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "simd_level",
            Json::Str(mjpeg::active_level().name().to_string()),
        ),
    ])
}
