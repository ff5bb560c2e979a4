//! Timing, counting and reporting helpers shared by every workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A timed run takes at least this many iterations, so its median is
/// never a single sample.
pub const MIN_ITERS: usize = 3;
/// Set-up is sampled at least this many times per iteration ...
const MIN_SETUPS: usize = 3;
/// ... and until this much set-up time has accumulated, so that set-up
/// samples spread over the whole run rather than one moment of it.
const SETUP_BUDGET: Duration = Duration::from_millis(30);

/// The global allocator: `System`, plus a heap-allocation counter that
/// only counts while [`count_allocs`] has switched it on, so untraced
/// runs pay one relaxed load per allocation and no shared-counter
/// traffic between threads.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic load and increment, which cannot unwind, allocate or
// touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from the matching `System`
        // call, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`, `layout` and `new_size` obligations are the
        // caller's and pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with the allocation counter on and returns its result with
/// the number of heap allocations (and reallocations) it made.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Times `build` repeatedly — at least [`MIN_SETUPS`] samples and for at
/// least [`SETUP_BUDGET`] — and appends the per-call wall times to
/// `samples`. Calls shorter than a millisecond are timed in batches, so
/// that every sample spans many clock ticks. Each result is dropped
/// before the next call, so the calls never overlap in memory.
pub fn sample_setup<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    let mut batch = 1usize;
    while batch < 1 << 20 && timed(|| (0..batch).for_each(|_| drop(build()))).1 < 1e-3 {
        batch *= 2;
    }
    let (mut n, mut total) = (0, 0.0);
    while n < MIN_SETUPS || total < SETUP_BUDGET.as_secs_f64() {
        let secs = timed(|| (0..batch).for_each(|_| drop(build()))).1;
        samples.push(secs / batch as f64);
        n += 1;
        total += secs;
    }
}

/// What one timed iteration measured in its own process: set-up samples,
/// the run time, and the events and flood sources the run processed
/// (their meaning per workload is in `end_to_end`).
pub struct Iteration {
    pub setups: Vec<f64>,
    pub run_s: f64,
    pub events: f64,
    pub sources: f64,
}

impl Iteration {
    /// Prints the iteration, and this process's peak RSS (`VmHWM`, MB),
    /// as `sample <name> <value>` lines for the parent run to pool.
    pub fn print(&self) {
        for s in &self.setups {
            println!("sample setup_s {s:?}");
        }
        println!("sample run_s {:?}", self.run_s);
        println!("sample events {:?}", self.events);
        println!("sample sources {:?}", self.sources);
        println!("sample peak_rss_mb {:?}", peak_rss_mb());
    }
}

/// Records the end-to-end metrics from the samples pooled over a timed
/// run: medians of the set-up and run times, throughput of `events` and
/// `sources` per second of the median run, and the median peak RSS.
pub fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    runs: &[f64],
    peaks: &[f64],
    events: f64,
    sources: f64,
) {
    println!("run_s samples: {runs:?}");
    println!("setup_s samples: {} (median reported)", setups.len());
    println!("peak_rss_mb samples: {peaks:?}");
    let run_s = median(runs);
    report.metric("run_s", run_s, "s");
    report.metric("setup_s", median(setups), "s");
    report.metric("events_per_s", events / run_s, "1/s");
    report.metric("sources_per_s", sources / run_s, "1/s");
    report.metric("peak_rss_mb", median(peaks), "MB");
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// Worker threads (analysis) or shards (scale) the benchmark drives:
/// the host's parallelism, capped at 2.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Named metrics and named output checks collected by one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    checks: Vec<(String, bool)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Whether a metric of this name has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.0 == name)
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn failed(&self) -> usize {
        self.checks.iter().filter(|c| !c.1).count()
    }

    /// Prints every check, one per line.
    pub fn print_checks(&self) {
        for (name, ok) in &self.checks {
            println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
        }
    }

    /// Prints every check and every metric, one per line, then the result
    /// line: one JSON object with `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn print(&self) {
        self.print_checks();
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {} {unit}", json_num(*value));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0 && !self.checks.is_empty(),
            self.checks.len(),
            self.failed(),
            metrics.join(", ")
        );
    }

    /// Adds the checks and metrics another run printed with
    /// [`print`](Self::print), prefixing each name with `prefix`.
    pub fn absorb(&mut self, prefix: &str, printed: &str) -> Result<(), String> {
        for line in printed.lines() {
            if let Some(name) = line.strip_prefix("check ok: ") {
                self.check(format!("{prefix}{name}"), true);
            } else if let Some(name) = line.strip_prefix("check FAILED: ") {
                self.check(format!("{prefix}{name}"), false);
            } else if let Some(rest) = line.strip_prefix("metric ") {
                let bad = || format!("{prefix}: malformed line {line:?}");
                let (name, value_unit) = rest.split_once(" = ").ok_or_else(bad)?;
                let (value, unit) = value_unit.split_once(' ').ok_or_else(bad)?;
                let value = value.parse().map_err(|_| bad())?;
                self.metric(&format!("{prefix}{name}"), value, unit);
            }
        }
        Ok(())
    }
}

/// A finite number as JSON; anything else as `null` (never valid output
/// from a correct run, so the result is refused rather than misread).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}
