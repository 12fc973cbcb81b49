//! Diagnostic: /proc fault and context-switch counters around a
//! fan-in/fan-out run, for chasing scheduler or paging pathologies.
//!
//! ```text
//! cargo run --release -p embera-bench --example fanio_probe -- [n] [m] [workers]
//! ```
//!
//! This is how the uninitialized-fiber-stack optimization was found: a
//! zero-filled 128 KiB stack first-touches all 32 pages per component
//! at deploy (281k minor faults at n = 10 000), where the fiber itself
//! only ever uses two or three.

fn stat_fields() -> (u64, u64, u64, u64) {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Skip past the parenthesized comm field, then split.
    let rest = &s[s.rfind(')').unwrap() + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // Fields after comm+state: minflt is index 7, majflt 9, utime 11, stime 12.
    (
        f[7].parse().unwrap(),
        f[9].parse().unwrap(),
        f[11].parse().unwrap(),
        f[12].parse().unwrap(),
    )
}

fn ctx_switches() -> (u64, u64) {
    let s = std::fs::read_to_string("/proc/self/status").unwrap();
    let grab = |key: &str| {
        s.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (grab("voluntary_ctxt_switches"), grab("nonvoluntary_ctxt_switches"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10_000);
    let m: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let w: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let (minflt0, majflt0, ut0, st0) = stat_fields();
    let (v0, nv0) = ctx_switches();
    let t0 = std::time::Instant::now();
    let run = embera_bench::fanio::run_fanio_exec(n, m, 256, w, None);
    let wall = t0.elapsed();
    let (minflt1, majflt1, ut1, st1) = stat_fields();
    let (v1, nv1) = ctx_switches();
    let hz = 100.0; // USER_HZ
    println!(
        "n={n} m={m} w={w}: wall {:.2}s report {:.2}s msgs/s {:.0}",
        wall.as_secs_f64(),
        run.wall_ns as f64 / 1e9,
        run.msgs_per_s
    );
    println!(
        "minflt {} majflt {} utime {:.2}s stime {:.2}s vctx {} nvctx {}",
        minflt1 - minflt0,
        majflt1 - majflt0,
        (ut1 - ut0) as f64 / hz,
        (st1 - st0) as f64 / hz,
        v1 - v0,
        nv1 - nv0
    );
}
