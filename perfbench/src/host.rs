//! Host fingerprint printed with every result: CPU model, parallelism,
//! cache sizes, and the time of a fixed calibration kernel run in the
//! same process. Recorded for cross-host comparison only; nothing here
//! gates a result.

use std::hint::black_box;

use crate::measure::{median, timed};

/// One JSON object describing the host this process runs on.
pub fn fingerprint_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caches: Vec<String> = (0..8)
        .map_while(|i| cache_entry(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}")))
        .map(|c| format!("\"{}\"", escape(&c)))
        .collect();
    format!(
        "{{\"cpu\": \"{}\", \"nproc\": {nproc}, \"caches\": [{}], \"calibration_s\": {:?}}}",
        escape(model),
        caches.join(", "),
        calibration_s()
    )
}

/// `L<level> <type> <size>` for one sysfs cache index, if it exists.
fn cache_entry(dir: &str) -> Option<String> {
    let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
    let level = read("level")?;
    let kind = read("type")?;
    let size = read("size")?;
    Some(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()))
}

/// Median of five runs of a fixed single-thread integer kernel (a
/// dependent xorshift-multiply chain over 2^25 steps, about 0.1 s on a
/// current core).
fn calibration_s() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                for _ in 0..1u32 << 25 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                }
                black_box(x)
            })
            .1
        })
        .collect();
    median(&samples)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
