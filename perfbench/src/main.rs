//! Benchmark of the super-peer network engines, driven from outside
//! through their public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is timed for `--seconds` seconds, one
//! fresh process per iteration, and the end-to-end metrics are printed;
//! with `--trace 1` one traced pass prints the per-layer metrics instead.
//! Every run checks its outputs.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--workload all` runs every
//! workload, each in a fresh process. See `perfbench/README.md`.

mod analyze;
mod churn;
mod digest;
mod host;
mod measure;
mod scale;

use std::process::{Command, ExitCode};
use std::time::Instant;

use churn::Churn;
use measure::{end_to_end, CountingAlloc, Iteration, Report, MIN_ITERS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 4] = [
    "analyze-100k",
    "churn-steady-4k",
    "churn-storm-4k",
    "scale-1m",
];

/// Every per-layer metric, with its unit. A workload that does not
/// exercise a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("instance.generate_s", "s"),
    ("traverse.flood_s", "s"),
    ("traverse.reach_mean", "count"),
    ("analysis.charge_s", "s"),
    ("analysis.thread_speedup", "ratio"),
    ("analysis.allocs", "count"),
    ("engine.query_s", "s"),
    ("engine.join_s", "s"),
    ("engine.leave_s", "s"),
    ("engine.update_s", "s"),
    ("engine.rejoin_s", "s"),
    ("engine.recruit_s", "s"),
    ("engine.repair_s", "s"),
    ("engine.fault_s", "s"),
    ("engine.phase_s", "s"),
    ("engine.sample_s", "s"),
    ("engine.query_mean_us", "us"),
    ("engine.query_p99_us", "us"),
    ("engine.query_max_us", "us"),
    ("engine.slice_s_median", "s"),
    ("engine.slice_s_max", "s"),
    ("events.cancelled", "count"),
    ("events.stale", "count"),
    ("events.queue_high_water", "count"),
    ("events.useful_ratio", "ratio"),
    ("faults.injected_drop", "count"),
    ("faults.recovered", "count"),
    ("repair.promotions", "count"),
    ("overload.shed_frac", "fraction"),
    ("overload.brownout_entries", "count"),
    ("shard.run_s_1", "s"),
    ("shard.parallel_eff", "ratio"),
    ("shard.cross_msgs", "count"),
    ("shard.intra_msgs", "count"),
    ("shard.cross_frac", "fraction"),
    ("shard.queue_high_water", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one timed iteration and print its samples for the parent
    /// run to pool (`--child 1`, set only by [`timed_run`]).
    child: bool,
}

fn parse_bit(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} {value}: expected 0 or 1")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = parse_bit(&flag, &value)?,
            "--child" => args.child = parse_bit(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Runs one workload and prints its report: a traced pass in this
/// process, or a timed run over child processes.
fn run_one(args: &Args) -> Result<(), String> {
    if args.child {
        iteration(args).print();
        return Ok(());
    }
    println!(
        "workload {} seed {} {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "timed" }
    );
    println!("host: {}", host::fingerprint_json());
    let mut report = Report::default();
    if args.trace {
        traced_pass(args, &mut report);
    } else {
        timed_run(args, &mut report)?;
    }
    report.print();
    Ok(())
}

/// One timed iteration in this process. Prints its output checks and
/// digests; the caller prints the samples.
fn iteration(args: &Args) -> Iteration {
    let mut report = Report::default();
    let mut digests = Vec::new();
    let (seed, r, d) = (args.seed, &mut report, &mut digests);
    let it = match args.workload.as_str() {
        "analyze-100k" => analyze::iteration(seed, r, d),
        "churn-steady-4k" => churn::iteration(Churn::Steady, seed, r, d),
        "churn-storm-4k" => churn::iteration(Churn::Storm, seed, r, d),
        "scale-1m" => scale::iteration(seed, r, d),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    report.print_checks();
    for d in digests {
        println!("sample digest {d:#018x}");
    }
    it
}

/// Times the workload for about `--seconds`: at least [`MIN_ITERS`]
/// iterations, and no iteration expected to end past `--seconds`. Each
/// iteration runs in a fresh child process, as a user's one-shot run
/// does. Iterations in one process run within a few percent of each
/// other, while processes of the same seed differ by up to 30%, so
/// pooling one iteration from each of many processes keeps the medians
/// from hanging on one process.
fn timed_run(args: &Args, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let (mut setups, mut runs, mut peaks, mut digests) = (vec![], vec![], vec![], vec![]);
    let (mut events, mut sources) = (0.0, 0.0);
    while runs.len() < MIN_ITERS
        || start.elapsed().as_secs_f64() * (runs.len() + 1) as f64 / runs.len() as f64
            <= args.seconds
    {
        let seed = args.seed.to_string();
        let out = spawn(&[
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--child",
            "1",
        ])?;
        report.absorb("", &out)?;
        let before = runs.len();
        for line in out.lines() {
            let Some((name, value)) = line.strip_prefix("sample ").and_then(|r| r.split_once(' '))
            else {
                continue;
            };
            let bad = || format!("child: malformed line {line:?}");
            if name == "digest" {
                let hex = value.strip_prefix("0x").ok_or_else(bad)?;
                digests.push(u64::from_str_radix(hex, 16).map_err(|_| bad())?);
                continue;
            }
            let v: f64 = value.parse().map_err(|_| bad())?;
            match name {
                "setup_s" => setups.push(v),
                "run_s" => runs.push(v),
                "peak_rss_mb" => peaks.push(v),
                "events" => events = v,
                "sources" => sources = v,
                _ => return Err(bad()),
            }
        }
        if runs.len() != before + 1 {
            return Err("child: expected exactly one run_s sample".to_string());
        }
    }
    end_to_end(report, &setups, &runs, &peaks, events, sources);
    check_digests(report, &args.workload, args.seed, &digests);
    Ok(())
}

/// The traced pass, in this process.
fn traced_pass(args: &Args, report: &mut Report) {
    let mut digests = Vec::new();
    let (seed, r, d) = (args.seed, &mut *report, &mut digests);
    match args.workload.as_str() {
        "analyze-100k" => analyze::trace(seed, r, d),
        "churn-steady-4k" => churn::trace(Churn::Steady, seed, r, d),
        "churn-storm-4k" => churn::trace(Churn::Storm, seed, r, d),
        "scale-1m" => scale::trace(seed, r, d),
        _ => unreachable!("workload names are validated by parse_args"),
    }
    check_digests(report, &args.workload, seed, &digests);
    for &(name, unit) in PER_LAYER {
        if !report.has(name) {
            report.metric(name, 0.0, unit);
        }
    }
}

/// Runs this binary with `args` and returns its standard output.
fn spawn(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("{args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Every run of one workload and seed must produce the same digest, and
/// it must equal the recorded one where a digest is recorded.
fn check_digests(report: &mut Report, workload: &str, seed: u64, digests: &[u64]) {
    let first = digests[0];
    println!("digest {workload} seed {seed} = {first:#018x}");
    report.check(
        "digest: identical across repeated runs, threads and shards",
        digests.iter().all(|&d| d == first),
    );
    if let Some(want) = digest::recorded(workload, seed) {
        report.check(
            format!("digest: matches the value recorded for seed {seed} ({want:#018x})"),
            first == want,
        );
    }
}

/// Runs every workload, each in a fresh child process, and prints one
/// combined result line whose metric names carry the workload as a
/// prefix.
fn run_all(args: &Args) -> Result<(), String> {
    let mut combined = Report::default();
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    for w in WORKLOADS {
        let trace = if args.trace { "1" } else { "0" };
        let args = [
            "--workload",
            w,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
            "--trace",
            trace,
        ];
        let stdout = spawn(&args)?;
        print!("{stdout}");
        combined.absorb(&format!("{w}/"), &stdout)?;
    }
    combined.print();
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
