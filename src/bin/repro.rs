//! `repro` — regenerate every table and figure of the EMBera paper.
//!
//! ```text
//! cargo run --release --bin repro -- all          # everything, reduced scale
//! cargo run --release --bin repro -- all --paper  # full 578/3000-frame streams
//! cargo run --release --bin repro -- table1|table2|figure4|figure5|table3|figure8
//! cargo run --release --bin repro -- cache|memseries          # paper future work
//! cargo run --release --bin repro -- scaling|dot              # scaling study, graphs
//! cargo run --release --bin repro -- alloc-check [--backend smp|exec]  # steady-state allocation proof
//! cargo run --release --bin repro -- overload|fuzz            # conservation ledger, parser fuzz
//! ```
//!
//! Reduced scale keeps the default run under a minute; `--paper` uses
//! the paper's exact stream lengths (578 and 3000 images). Performance
//! is measured by the `benchmark/` crate, not here.

use embera::{ObserverConfig, OverloadPolicy, Platform, RunningApp};
use embera_os21::Os21Platform;
use embera_repro::loadgen::{overload_stream, run_overload_smp, OverloadOutcome};
use embera_repro::runner;
use embera_repro::stats::linear_fit;
use embera_repro::sweep::{mpsoc_send_sweep, smp_send_sweep, MpsocSender};
use embera_repro::tables::{format_table1, format_table2, format_table3, table3_ratio};
use embera_repro::{
    run_mjpeg_stream_on, run_mpsoc_mjpeg, run_smp_mjpeg, stream, BenchBackend, FIGURE4_SIZES_KB,
    FIGURE8_SIZES_KB,
};
use embera_smp::SmpPlatform;
use mjpeg::workload::{DEFAULT_HEIGHT, DEFAULT_WIDTH};
use mjpeg::{
    build_mpsoc_app, build_smp_app, ArrivalProcess, AutoscaleConfig, DctKind, MjpegAppConfig,
    OverloadConfig, Pacing,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

struct Scale {
    small: usize,
    large: usize,
    sweep_iters: u32,
}

// ---------------------------------------------------------------------
// Counting global allocator: the proof behind the zero-allocation
// messaging claim. Every heap acquisition (alloc, alloc_zeroed,
// realloc) bumps one counter; `alloc-check` then compares an F-frame
// and a 2F-frame pipeline run — fixed per-run overhead (threads,
// mailboxes, reports) cancels, so the difference divided by the extra
// frames is the steady-state allocation cost per frame. Pooled
// messaging must bring it to exactly zero.
// ---------------------------------------------------------------------

struct CountingAlloc;

static ALLOC_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: std::alloc::Layout,
        new_size: usize,
    ) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOC_COUNT.load(std::sync::atomic::Ordering::SeqCst)
}

/// What the value after a flag must be. `main` checks it before any
/// command runs, so a command reads its flags as already valid.
#[derive(Clone, Copy)]
enum Value {
    /// An unsigned integer.
    Count,
    /// A [`BenchBackend`] name.
    Backend,
    /// A file path: anything.
    Path,
}

impl Value {
    fn accepts(self, s: &str) -> bool {
        match self {
            Value::Count => s.parse::<u64>().is_ok(),
            Value::Backend => BenchBackend::parse(s).is_some(),
            Value::Path => true,
        }
    }

    /// How the listing and the usage errors write the value.
    fn placeholder(self) -> &'static str {
        match self {
            Value::Count => "N",
            Value::Backend => "smp|exec",
            Value::Path => "FILE",
        }
    }
}

/// One `repro` subcommand. `repro all`, `repro help`, and the
/// unknown-command listing all iterate this same table, so a command
/// added here is automatically listed, documented with its flags, and
/// covered by `all`.
struct Command {
    name: &'static str,
    help: &'static str,
    run: fn(&Scale, &[String]),
    /// Every flag the command reads; each takes one value. `main` finds
    /// the command with this list (the token after a flag is its value,
    /// never the command), rejects whatever is not on it, and `all`
    /// forwards to a row only what the row declares.
    flags: &'static [(&'static str, Value)],
    /// Arguments appended for the cheap smoke form `repro all` runs;
    /// empty where the full form is already cheap.
    smoke_args: &'static [&'static str],
}

/// Where the smoke forms put what they write, so `repro all` leaves
/// nothing in the working directory.
const SMOKE_DIR: &str = "target/smoke";

const COMMANDS: &[Command] = &[
    Command { name: "table1", help: "Table 1: SMP execution time and memory", run: |s, _| table1_and_2(s, true, false), flags: &[], smoke_args: &[] },
    Command { name: "table2", help: "Table 2: communication operation counts", run: |s, _| table1_and_2(s, false, true), flags: &[], smoke_args: &[] },
    Command { name: "figure4", help: "Figure 4: SMP send time vs message size", run: |s, _| figure4(s), flags: &[], smoke_args: &[] },
    Command { name: "figure5", help: "Figure 5: interfaces of component IDCT_1", run: |s, _| figure5(s), flags: &[], smoke_args: &[] },
    Command { name: "table3", help: "Table 3: simulated STi7200 time and memory", run: |s, _| table3(s), flags: &[], smoke_args: &[] },
    Command { name: "figure8", help: "Figure 8: STi7200 send time vs message size", run: |s, _| figure8(s), flags: &[], smoke_args: &[] },
    Command { name: "cache", help: "X1: cache-miss observation (future work)", run: |s, _| cache(s), flags: &[], smoke_args: &[] },
    Command { name: "memseries", help: "X2: memory evolution over execution", run: |s, _| memseries(s), flags: &[], smoke_args: &[] },
    Command { name: "scaling", help: "S1: accelerator scaling study", run: |s, _| scaling(s), flags: &[], smoke_args: &[] },
    Command { name: "dot", help: "GraphViz graphs of the paper's deployments", run: |_, _| dot(), flags: &[], smoke_args: &[] },
    Command { name: "alloc-check", help: "steady-state allocation proof, exit 1 if it fails", run: alloc_check, flags: &[("--frames", Value::Count), ("--backend", Value::Backend), ("--workers", Value::Count)], smoke_args: &[] },
    Command { name: "overload", help: "open-loop overload curves, exit 1 if the shed ledger is off", run: overload, flags: &[("--frames", Value::Count), ("--jobs", Value::Count)], smoke_args: &["--frames", "32"] },
    Command { name: "fuzz", help: "bounded deterministic fuzz of the byte-level parsers", run: |_, a| fuzz(a), flags: &[("--iters", Value::Count), ("--seed", Value::Count), ("--replay", Value::Path), ("--replay-out", Value::Path)], smoke_args: &["--iters", "200", "--replay-out", "target/smoke/fuzz_replay.bin"] },
];

fn print_command_list(out: &mut dyn std::io::Write) {
    let _ = writeln!(out, "usage: repro <command> [--paper] [command options]\n");
    for c in COMMANDS {
        let flags: String = c
            .flags
            .iter()
            .map(|(flag, value)| format!(" [{flag} {}]", value.placeholder()))
            .collect();
        let _ = writeln!(out, "  {:<16} {}{flags}", c.name, c.help);
    }
    let _ = writeln!(out, "  {:<16} every command above in its cheap smoke form", "all");
    let _ = writeln!(out, "  {:<16} this listing", "help");
}

/// A command line `repro` cannot act on: say why, print the listing,
/// exit 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n");
    print_command_list(&mut std::io::stderr());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paper = false;
    let mut list = false;
    let mut cmd = None;
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut tokens = args.iter().map(String::as_str);
    while let Some(token) = tokens.next() {
        match token {
            "--paper" => paper = true,
            "--list" => list = true,
            flag if flag.starts_with("--") => {
                let Some((_, kind)) = COMMANDS
                    .iter()
                    .flat_map(|c| c.flags)
                    .find(|(f, _)| *f == flag)
                else {
                    usage_error(&format!("unknown flag '{flag}'"));
                };
                match tokens.next() {
                    Some(value) if kind.accepts(value) => given.push((flag, value)),
                    _ => usage_error(&format!("expected {flag} {}", kind.placeholder())),
                }
            }
            name if cmd.is_none() => cmd = Some(name),
            extra => usage_error(&format!("unexpected argument '{extra}'")),
        }
    }
    let cmd = cmd.unwrap_or("all");
    if cmd == "help" || list {
        print_command_list(&mut std::io::stdout());
        return;
    }
    let all = cmd == "all";
    let rows: Vec<&Command> = COMMANDS.iter().filter(|c| all || c.name == cmd).collect();
    if rows.is_empty() {
        usage_error(&format!("unknown experiment '{cmd}'"));
    }
    let declares = |c: &Command, flag: &str| c.flags.iter().any(|(f, _)| *f == flag);
    if let Some((flag, _)) = given
        .iter()
        .find(|(f, _)| !rows.iter().any(|c| declares(c, f)))
    {
        usage_error(&format!("'{cmd}' takes no flag '{flag}'"));
    }
    let scale = if paper {
        Scale {
            small: 578,
            large: 3000,
            sweep_iters: 200,
        }
    } else {
        Scale {
            small: 58,
            large: 300,
            sweep_iters: 50,
        }
    };
    if all {
        std::fs::create_dir_all(SMOKE_DIR).expect("create smoke dir");
    }
    for c in rows {
        // The user's flags first: an explicit `--frames` overrides the
        // smoke default (`arg_value` takes the first occurrence).
        let mut row_args: Vec<String> = given
            .iter()
            .filter(|(f, _)| declares(c, f))
            .flat_map(|(f, v)| [f.to_string(), v.to_string()])
            .collect();
        if all {
            println!("--- repro {} (smoke) ---", c.name);
            row_args.extend(c.smoke_args.iter().map(|s| s.to_string()));
        }
        (c.run)(&scale, &row_args);
    }
}

fn table1_and_2(scale: &Scale, table1: bool, table2: bool) {
    let small = run_smp_mjpeg(scale.small, 0x578);
    let large = run_smp_mjpeg(scale.large, 0x3000);
    if table1 {
        println!(
            "=== Table 1 — SMP execution time and memory ({} / {} frames) ===",
            scale.small, scale.large
        );
        println!("{}", format_table1(&small, &large));
        println!(
            "paper: Fetch 4084/20088 us 8392 kB; IDCTx 4084/20218 us 10850 kB; Reorder 4086/21538 us 13308 kB"
        );
        println!();
    }
    if table2 {
        println!(
            "=== Table 2 — communication operations ({} / {} frames) ===",
            scale.small, scale.large
        );
        println!("{}", format_table2(&small, &large));
        println!(
            "paper (578/3000): Fetch 10386/53982 sends; IDCTx 3462/17994 each way; Reorder 10386/53982 recvs"
        );
        println!(
            "structure check: sends(Fetch) = 18 x (N-1) = {} / {}",
            18 * (scale.small - 1),
            18 * (scale.large - 1)
        );
        println!();
    }
}

fn figure4(scale: &Scale) {
    println!("=== Figure 4 — SMP send execution time vs message size ===");
    let sizes: Vec<u64> = FIGURE4_SIZES_KB.iter().map(|k| k * 1024).collect();
    let points = smp_send_sweep(&sizes, scale.sweep_iters * 4);
    println!("size (kB)   mean send (us)");
    for p in &points {
        println!("{:>8}   {:>13.2}", p.size_bytes / 1024, p.mean_send_ns / 1e3);
    }
    let fit = linear_fit(
        &points
            .iter()
            .map(|p| (p.size_bytes as f64 / 1024.0, p.mean_send_ns / 1e3))
            .collect::<Vec<_>>(),
    );
    println!(
        "linear fit: {:.2} us + {:.3} us/kB, r2 = {:.4}  (paper: linear, ~2.6 us/kB up to 125 kB)",
        fit.a, fit.b, fit.r2
    );
    println!();
}

fn figure5(scale: &Scale) {
    println!("=== Figure 5 — interfaces of component IDCT_1 ===");
    let report = run_smp_mjpeg(scale.small.min(20), 1);
    print!(
        "{}",
        report
            .component("IDCT_1")
            .expect("IDCT_1")
            .structure
            .format_figure5()
    );
    println!();
}

fn table3(scale: &Scale) {
    println!(
        "=== Table 3 — simulated STi7200 execution time and memory ({} frames) ===",
        scale.small
    );
    let report = run_mpsoc_mjpeg(scale.small, 0x578);
    println!("{}", format_table3(&report));
    println!(
        "Fetch-Reorder/IDCT task-time ratio: {:.1}x  (paper: 1173/95 = 12.3x)",
        table3_ratio(&report)
    );
    println!("paper memory: Fetch-Reorder 110 kB (60 + 2x25); IDCTx 85 kB (60 + 25)");
    println!();
}

fn figure8(scale: &Scale) {
    println!("=== Figure 8 — STi7200 send execution time vs message size ===");
    let sizes: Vec<u64> = FIGURE8_SIZES_KB.iter().map(|k| k * 1024).collect();
    let st40 = mpsoc_send_sweep(&sizes, scale.sweep_iters, MpsocSender::St40);
    let st231 = mpsoc_send_sweep(&sizes, scale.sweep_iters, MpsocSender::St231);
    println!("size (kB)  Fetch-Reorder/ST40 (ms)  IDCT/ST231 (ms)");
    for (a, b) in st40.iter().zip(st231.iter()) {
        println!(
            "{:>8}  {:>23.3}  {:>15.3}",
            a.size_bytes / 1024,
            a.mean_send_ns / 1e6,
            b.mean_send_ns / 1e6
        );
    }
    let slope = |pts: &[embera_repro::sweep::SweepPoint], i: usize, j: usize| {
        (pts[j].mean_send_ns - pts[i].mean_send_ns)
            / ((pts[j].size_bytes - pts[i].size_bytes) as f64)
    };
    println!(
        "ST40 slope below knee {:.1} ns/B, above knee {:.1} ns/B (knee at 50 kB; the paper reports the same shape)",
        slope(&st40, 1, 3),
        slope(&st40, 4, 5)
    );
    println!("paper at 200 kB: Fetch-Reorder ~42 ms, IDCT ~28 ms");
    println!();
}

fn cache(scale: &Scale) {
    println!("=== X1 (paper section 6 future work) — cache-miss observation ===");
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, _probe) = build_mpsoc_app(stream(scale.small, 0x578), &cfg);
    let running = Os21Platform::three_cpu()
        .deploy(app.build().expect("valid app"))
        .expect("deploy");
    let machine = running.machine().clone();
    running.wait().expect("run");
    println!(
        "per-CPU L1D statistics after the MJPEG run ({} frames):",
        scale.small
    );
    for cpu in 0..machine.config().num_cpus() {
        let st = machine.dcache_stats(cpu);
        println!(
            "  {:<8} {:>10} hits {:>8} misses  ({:.2}% miss)",
            machine.config().cpus[cpu].name,
            st.hits,
            st.misses,
            st.miss_ratio() * 100.0
        );
    }
    let bus = machine.bus_stats();
    println!(
        "  bus: {} transactions, busy {:.2} ms, queueing {:.2} ms",
        bus.transactions,
        bus.busy_ns as f64 / 1e6,
        bus.wait_ns as f64 / 1e6
    );
    println!();
}

fn memseries(scale: &Scale) {
    println!("=== X2 (paper section 6 future work) — memory evolution over execution ===");
    let (mut app, _probe) = build_smp_app(
        stream(scale.small.max(200), 0xCAFE),
        &MjpegAppConfig::default(),
    );
    let log = app.with_observer(ObserverConfig::default().interval_ns(3_000_000));
    SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    println!("t (ms)   component        static mem (kB)  queued (B)  sends");
    for r in log.records().iter().take(24) {
        println!(
            "{:>6.1}   {:<16} {:>15} {:>11} {:>6}",
            r.at_ns as f64 / 1e6,
            r.report.component,
            r.report.os.memory_bytes / 1000,
            r.report.os.queued_bytes,
            r.report.app.total_sends
        );
    }
    println!("({} samples total)", log.len());
    println!();
}

fn dot() {
    println!("=== component graphs (GraphViz dot; pipe into `dot -Tsvg`) ===\n");
    let (mut smp, _) = build_smp_app(stream(2, 1), &MjpegAppConfig::default());
    let _ = smp.with_observer(ObserverConfig::default());
    println!("// paper Figure 1/3: SMP deployment with observer");
    println!("{}", smp.build().expect("valid").to_dot());
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (mpsoc, _) = build_mpsoc_app(stream(2, 1), &cfg);
    println!("// paper Figure 7: STi7200 deployment");
    println!("{}", mpsoc.build().expect("valid").to_dot());
}

fn scaling(scale: &Scale) {
    println!("=== S1 — accelerator scaling on the simulated MPSoC ===");
    println!(
        "(paper section 1 motivates parts with 'dozens and even hundreds of computing cores';"
    );
    println!(" this sweep shows where the pipeline and the shared bus stop scaling)\n");
    let frames = scale.small.min(40);
    for (label, profile) in [
        ("paper workload (Fetch-Reorder-bound)", mjpeg::WorkProfile::default()),
        (
            "IDCT-bound workload (200x DSP per block)",
            mjpeg::WorkProfile {
                idct_ops_per_block: 4_000_000,
                ..Default::default()
            },
        ),
    ] {
        println!("{label}:");
        println!("  IDCTs  virtual time (s)  speedup");
        let mut base = None;
        for n in [1usize, 2, 4, 8] {
            let cfg = MjpegAppConfig {
                idct_count: n,
                profile,
                ..Default::default()
            };
            let (app, _probe) = build_mpsoc_app(stream(frames, 0x578), &cfg);
            let mut platform =
                Os21Platform::with_config(mpsoc_sim::MachineConfig::with_accelerators(n));
            let report = platform
                .deploy(app.build().expect("valid app"))
                .expect("deploy")
                .wait()
                .expect("run");
            let t = report.wall_time_ns as f64 / 1e9;
            let b = *base.get_or_insert(t);
            println!("  {n:>5}  {t:>16.3}  {:>6.2}x", b / t);
        }
        println!();
    }
    println!(
        "The paper workload does not scale: the Fetch-Reorder component's serial work\n\
         dominates (the Table 3 bottleneck), so extra accelerators idle — Amdahl's law\n\
         observed through the component model. The IDCT-bound variant scales until the\n\
         ST40's per-frame fetch/reorder share becomes the new critical path."
    );
}

/// `--key value` lookup in a command's arguments; the first occurrence
/// wins.
fn arg_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The value of a [`Value::Count`] flag.
fn arg_count(args: &[String], key: &str) -> Option<u64> {
    arg_value(args, key).map(|s| s.parse().expect("main checked every count flag"))
}

/// Marginal heap allocations per extra frame, measured differentially:
/// run the pipeline at `frames` and `2 * frames` frames and subtract
/// the allocation counts. Fixed per-run overhead (thread spawn,
/// mailboxes, report assembly) appears in both runs and cancels; what
/// remains is the steady-state per-frame cost. Streams are synthesized
/// and the pool prewarmed *outside* the counted windows, and a warm-up
/// run first settles lazy statics (Huffman LUTs, SIMD dispatch).
/// Returns the total marginal count, the per-frame rate, and the pool
/// stats of the long run (pooled mode only).
fn marginal_allocs(
    backend: BenchBackend,
    pool_workers: usize,
    frames: usize,
    cfg: &MjpegAppConfig,
    pooled: bool,
) -> (i64, f64, Option<embera::PoolStats>) {
    let counted = |n: usize| -> (u64, Option<embera::PoolStats>) {
        let s = stream(n, 0x578);
        let pool = pooled.then(|| {
            let p = mjpeg::pipeline_pool(cfg);
            p.prewarm(256);
            p
        });
        let before = allocs_now();
        let (_report, done) = run_mjpeg_stream_on(backend, pool_workers, s, cfg, pool.clone());
        let after = allocs_now();
        assert_eq!(done, n as u64 - 1, "pipeline dropped frames");
        (after - before, pool.map(|p| p.stats()))
    };
    counted(frames.clamp(2, 8));
    // Min of two attempts per length: scheduler interleaving cannot
    // remove allocations, so the minimum is the cleanest sample.
    let (short, _) = (0..2).map(|_| counted(frames)).min_by_key(|r| r.0).unwrap();
    let (long, stats) = (0..2)
        .map(|_| counted(2 * frames))
        .min_by_key(|r| r.0)
        .unwrap();
    let marginal = long as i64 - short as i64;
    (marginal, marginal as f64 / frames as f64, stats)
}

/// `alloc-check` — prove the pooled pipeline decodes in steady state
/// with **zero** heap allocations, via the counting global allocator;
/// exits 1 if it does not. `--frames N` overrides the base stream
/// length; `--backend smp|exec` selects the execution backend
/// (`--workers N` sizes the executor pool, `0` = auto).
fn alloc_check(scale: &Scale, args: &[String]) {
    let backend = arg_value(args, "--backend").map_or(BenchBackend::Smp, |s| {
        BenchBackend::parse(s).expect("main checked the backend name")
    });
    let pool_workers = arg_count(args, "--workers").unwrap_or(0) as usize;
    let cfg = MjpegAppConfig {
        blocks_per_msg: 72,
        kernel: DctKind::FastSimd,
        ..Default::default()
    };
    // A lane sends its first full batch once Fetch has dealt it
    // `blocks_per_msg` blocks, and the first frame of a stream is not
    // forwarded. A base run shorter than that only ever flushes
    // stream-end remainders, so the 2x run's first full batches would
    // be booked as marginal cost: that is warm-up, not a leak.
    let blocks_per_frame = DEFAULT_WIDTH * DEFAULT_HEIGHT / mjpeg::dct::BLOCK_SIZE;
    let lane_batch_frames = (cfg.blocks_per_msg * cfg.idct_count).div_ceil(blocks_per_frame);
    let frames = arg_count(args, "--frames")
        .map_or(scale.small, |n| n as usize)
        .max(lane_batch_frames + 1);
    println!(
        "=== alloc-check — marginal heap allocations on {}, {frames}- vs {}-frame runs ===",
        backend.name(),
        2 * frames
    );
    if let Some(pool) = backend.worker_pool(pool_workers) {
        println!("executor worker pool: {pool}");
    }
    let (plain, plain_pf, _) = marginal_allocs(backend, pool_workers, frames, &cfg, false);
    let (pooled, pooled_pf, stats) = marginal_allocs(backend, pool_workers, frames, &cfg, true);
    let stats = stats.expect("pooled run returns pool stats");
    println!("unpooled: {plain:+} marginal allocations ({plain_pf:+.2} per extra frame)");
    println!("pooled:   {pooled:+} marginal allocations ({pooled_pf:+.2} per extra frame)");
    println!(
        "pool: grown {} recycled {} dropped {} free {}",
        stats.grown, stats.recycled, stats.dropped, stats.free
    );
    if pooled > 0 || stats.grown > 0 {
        println!("FAIL: pooled steady state still allocates");
        std::process::exit(1);
    }
    println!("steady state is allocation-free in the pooled configuration");
    println!();
}

// ---------------------------------------------------------------------
// PR 8: overload robustness — open-loop traffic, shedding policies, and
// the observation-driven autoscaler.
// ---------------------------------------------------------------------

/// Policy axis of the `overload` curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OverloadMode {
    /// Unbounded queueing: the degradation baseline.
    NoPolicy,
    /// `OverloadPolicy::deadline_drop()` at Fetch's ingress with a
    /// tight latency budget.
    DeadlineDrop,
    /// Observation-driven worker scaling (1..4 lanes), no shedding.
    Autoscale,
}

impl OverloadMode {
    const ALL: [OverloadMode; 3] = [
        OverloadMode::NoPolicy,
        OverloadMode::DeadlineDrop,
        OverloadMode::Autoscale,
    ];

    fn name(self) -> &'static str {
        match self {
            OverloadMode::NoPolicy => "none",
            OverloadMode::DeadlineDrop => "deadline_drop",
            OverloadMode::Autoscale => "autoscale",
        }
    }
}

/// `overload` — the throughput-vs-p99 curves: an open-loop Poisson load
/// generator drives the MJPEG pipeline at offered loads bracketing its
/// calibrated capacity, under three policies (unbounded queueing,
/// ingress deadline-drop with a tight budget, observation-driven worker
/// autoscaling), `--frames N` frames injected per run.
///
/// Exits 1 if any run's shed ledger does not balance: the conservation
/// law is exact. The robustness criteria are printed as verdicts, not
/// enforced: deadline-drop keeps completed-frame p99 within 5× the
/// low-load p99 at 2× saturation while the no-policy baseline degrades
/// past it (at smoke scale it does not yet), and autoscale completes
/// ≥95% of injected frames.
fn overload(scale: &Scale, args: &[String]) {
    let frames = arg_count(args, "--frames")
        .unwrap_or((scale.small as u64).clamp(48, 600) * 4)
        .max(32);
    // 96×48 frames (72 blocks): 4× the Table-1 service time, so offered
    // gaps stay well above the threaded backends' timer granularity.
    let base = overload_stream(5, 0x578);
    // Generous budget for runs that measure latency without shedding:
    // far beyond any queueing delay these runs can build, never hit.
    const GENEROUS_NS: u64 = 120_000_000_000;
    let fixed_workers = 2usize;
    let cfg = |mean_gap_ns: u64,
               arrival: ArrivalProcess,
               budget: u64,
               policy: Option<OverloadPolicy>,
               autoscale: Option<AutoscaleConfig>,
               initial: usize,
               max: usize| OverloadConfig {
        frames,
        mean_gap_ns,
        arrival,
        seed: 0x0BAD_CAFE,
        deadline_budget_ns: budget,
        max_workers: max,
        initial_workers: initial,
        fetch_policy: policy,
        autoscale,
        pacing: Pacing::RealTime,
        ..OverloadConfig::default()
    };
    println!("=== overload — open-loop robustness curves, {frames} frames/run, 72-block frames ===");

    // 1. Capacity calibration: back-to-back injection (no pacing) on the
    //    fixed 2-worker pipeline; completed/wall is the service rate.
    let calib = run_overload_smp(
        base.clone(),
        &cfg(0, ArrivalProcess::Periodic, GENEROUS_NS, None, None, fixed_workers, fixed_workers),
    );
    assert_eq!(calib.completed, frames, "calibration run dropped frames");
    let capacity_fps = calib.completed as f64 / calib.wall_s;
    println!("calibrated capacity: {capacity_fps:.0} frames/s ({:.4} s for {frames})", calib.wall_s);
    let gap_for = |x: f64| (1e9 / (capacity_fps * x)) as u64;

    // 2. Low-load latency reference at 0.5×: the p99 every curve is
    //    judged against, and the source of the deadline-drop budget.
    let low = run_overload_smp(
        base.clone(),
        &cfg(
            gap_for(0.5),
            ArrivalProcess::Poisson,
            GENEROUS_NS,
            None,
            None,
            fixed_workers,
            fixed_workers,
        ),
    );
    let p99_low = low.p99_ns.max(1);
    let tight_budget = 5 * p99_low;
    println!(
        "low-load (0.5x) p99: {:.3} ms -> deadline budget {:.3} ms",
        p99_low as f64 / 1e6,
        tight_budget as f64 / 1e6
    );

    // 3. The curves: three policies at offered loads bracketing
    //    saturation. The runs are real-time paced (sleep-dominated at
    //    sub-saturation loads), so they tolerate co-scheduling; default
    //    is still 1 job because the >=1.2x cells are CPU-bound and their
    //    latency tails would share the machine.
    let jobs = arg_count(args, "--jobs").unwrap_or(1).max(1) as usize;
    let loads = [0.5f64, 0.8, 1.2, 2.0];
    let autoscale_cfg = AutoscaleConfig {
        high_queue: 6,
        low_queue: 1,
        hysteresis_rounds: 2,
        min_workers: 1,
        interval_ns: 2_000_000,
    };
    let curve_cells: Vec<(f64, OverloadMode)> = loads
        .iter()
        .flat_map(|&x| OverloadMode::ALL.into_iter().map(move |m| (x, m)))
        .collect();
    let outs = runner::run_cells(jobs, curve_cells.len(), |i| {
        let (x, mode) = curve_cells[i];
        let c = match mode {
            OverloadMode::NoPolicy => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                GENEROUS_NS,
                None,
                None,
                fixed_workers,
                fixed_workers,
            ),
            OverloadMode::DeadlineDrop => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                tight_budget,
                Some(OverloadPolicy::deadline_drop()),
                None,
                fixed_workers,
                fixed_workers,
            ),
            OverloadMode::Autoscale => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                GENEROUS_NS,
                None,
                Some(autoscale_cfg),
                1,
                2 * fixed_workers,
            ),
        };
        run_overload_smp(base.clone(), &c)
    });
    let mut rows: Vec<(OverloadMode, f64, OverloadOutcome)> = Vec::new();
    for ((x, mode), out) in curve_cells.iter().copied().zip(outs) {
        println!(
            "{:<14} {:>4.1}x  completed {:>5}/{:<5} ({:>5.1}%)  shed {:>4}+{:<4}  p50 {:>8.3} ms  p99 {:>8.3} ms  scale {:?}",
            mode.name(),
            x,
            out.completed,
            out.injected,
            out.completed_fraction() * 100.0,
            out.shed_messages,
            out.expired_messages,
            out.p50_ns as f64 / 1e6,
            out.p99_ns as f64 / 1e6,
            out.scale_history,
        );
        if !out.ledger_balances() {
            eprintln!(
                "overload: shed ledger does not balance for {} at {x}x: {out:?}",
                mode.name()
            );
        }
        rows.push((mode, x, out));
    }

    // 4. Robustness verdicts at the top offered load (percentiles are
    //    exact, so the 5× comparison carries no slack).
    let top = *loads.last().expect("loads nonempty");
    let at = |mode: OverloadMode, x: f64| {
        &rows
            .iter()
            .find(|(m, l, _)| *m == mode && *l == x)
            .expect("measured")
            .2
    };
    let dd_top = at(OverloadMode::DeadlineDrop, top);
    let none_top = at(OverloadMode::NoPolicy, top);
    let dd_bounded = dd_top.completed > 0
        && (dd_top.p99_ns as f64) <= 5.0 * p99_low as f64;
    let none_degrades = (none_top.p99_ns as f64) > 5.0 * p99_low as f64;
    let autoscale_completes = loads
        .iter()
        .all(|&x| at(OverloadMode::Autoscale, x).completed_fraction() >= 0.95);
    let ledger_all = rows.iter().all(|(_, _, o)| o.ledger_balances());
    println!(
        "verdicts: deadline_drop_p99_bounded={dd_bounded} none_degrades={none_degrades} autoscale_completes={autoscale_completes} ledger_all={ledger_all}"
    );

    if !ledger_all {
        eprintln!("overload: shed accounting ledger violated");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 8: bounded fuzz loop over the byte-level parsers.
// ---------------------------------------------------------------------

/// A draw below `n` from the fuzz mutation stream: a modulo, so every
/// seed replays the mutations it always did.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n.max(1) as u64) as usize
}

/// Run every fuzz target over one input; panics propagate to the
/// caller's `catch_unwind`. Every byte-level parser that consumes
/// cross-component data: the Fetch stage's decode of an entropy-coded
/// segment (the input taken as raw segment bits, decoded until the
/// first error or 4 096 blocks), and the batch wire format (header
/// parse + per-block payload decode).
fn fuzz_targets(input: &[u8]) {
    let ftable = mjpeg::quant::fast_dequant_table(&mjpeg::quant::scaled_qtable(75));
    let mut segment = mjpeg::codec::EntropyDecoder::new(input);
    let mut coeffs = [0i32; 64];
    for _ in 0..4096 {
        if segment.next_block_scaled(&ftable, &mut coeffs).is_err() {
            break;
        }
    }
    if let Ok(view) = mjpeg::BatchView::coeffs(input) {
        for i in 0..view.len() {
            let (_f, _bi, payload) = view.block(i);
            let _ = mjpeg::pipeline::coeffs_from_bytes(payload);
        }
    }
    if let Ok(view) = mjpeg::BatchView::pixels(input) {
        for i in 0..view.len() {
            let _ = view.block(i);
        }
    }
}

/// `fuzz` — a bounded, deterministic fuzz loop over the byte-level
/// parsers (the Fetch entropy decode, `BatchView`): a
/// seeded corpus of valid artifacts is mutated (byte sets, bit flips,
/// truncations, splices) for `--iters` iterations (default 2000) from
/// `--seed` (default 1).
/// Every target must return `Ok`/`Err`, never panic. On a panic the
/// failing input is written to `--replay-out` (default
/// `fuzz_replay.bin`) and the exit is nonzero; `--replay <file>`
/// re-runs exactly that input under the panic.
fn fuzz(args: &[String]) {
    if let Some(path) = arg_value(args, "--replay") {
        let input = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("fuzz: cannot read replay file {path}: {e}");
            std::process::exit(2);
        });
        println!("fuzz: replaying {} bytes from {path}", input.len());
        fuzz_targets(&input);
        println!("fuzz: replay completed without panic");
        return;
    }
    let iters: u64 = arg_value(args, "--iters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let seed: u64 = arg_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let replay_out = arg_value(args, "--replay-out").unwrap_or("fuzz_replay.bin");

    // Corpus: valid artifacts of every target format, so mutations
    // explore deep parser states instead of bouncing off the headers.
    let corpus: Vec<Vec<u8>> = vec![
        mjpeg::pipeline::encode_coeff_batch(&[(0, 0, [3i32; 64]), (0, 1, [-7i32; 64])]).to_vec(),
        mjpeg::pipeline::encode_pixel_batch(&[(1, 0, [128u8; 64]), (1, 1, [9u8; 64])]).to_vec(),
        stream(1, 1).frames[0].data.clone(),
    ];

    println!(
        "=== fuzz — {} corpus entries, {iters} iterations, seed {seed} ===",
        corpus.len()
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Silence the default panic hook: a caught fuzz panic is a recorded
    // finding, not console noise (the hook is restored after the loop).
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failure: Option<(u64, Vec<u8>)> = None;
    for iter in 0..iters {
        let mut input = corpus[below(&mut rng, corpus.len())].clone();
        for _ in 0..1 + below(&mut rng, 4) {
            if input.is_empty() {
                break;
            }
            match below(&mut rng, 5) {
                0 => {
                    let i = below(&mut rng, input.len());
                    input[i] = rng.next_u64() as u8;
                }
                1 => {
                    let i = below(&mut rng, input.len());
                    input[i] ^= 1 << below(&mut rng, 8);
                }
                2 => input.truncate(below(&mut rng, input.len() + 1)),
                3 => {
                    // Splice a slice of the input over another offset.
                    let src = below(&mut rng, input.len());
                    let dst = below(&mut rng, input.len());
                    let len = below(&mut rng, 16).min(input.len() - src.max(dst));
                    input.copy_within(src..src + len, dst);
                }
                _ => {
                    let i = below(&mut rng, input.len() + 1);
                    input.insert(i, rng.next_u64() as u8);
                }
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fuzz_targets(&input);
        }));
        if result.is_err() {
            failure = Some((iter, input));
            break;
        }
    }
    std::panic::set_hook(saved_hook);
    match failure {
        Some((iter, input)) => {
            std::fs::write(replay_out, &input).expect("write replay file");
            eprintln!(
                "fuzz: PANIC at iteration {iter} (seed {seed}); {} bytes written to {replay_out}",
                input.len()
            );
            eprintln!("fuzz: reproduce with `repro fuzz --replay {replay_out}`");
            std::process::exit(1);
        }
        None => println!("fuzz: {iters} iterations, no panics"),
    }
}
