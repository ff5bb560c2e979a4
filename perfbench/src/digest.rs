//! Output digests: FNV-1a over a workload's integer counters and load
//! totals, checked against the values the engines produced when the
//! benchmark was written. Histogram-derived quantiles are left out on
//! purpose, so a change of histogram resolution does not read as a
//! change of output.

/// The seed every workload is sized and documented with.
pub const DEFAULT_SEED: u64 = 42;
/// A second seed with recorded digests, kept out of day-to-day tuning
/// so later claims can be confirmed on inputs no change was written
/// against.
pub const HELD_OUT_SEED: u64 = 2718;

/// Recorded digests: (workload, seed, digest).
const RECORDED: &[(&str, u64, u64)] = &[
    ("analyze-100k", DEFAULT_SEED, 0xdcce_9b49_840d_3c09),
    ("analyze-100k", HELD_OUT_SEED, 0xfd99_82a1_e38b_ff38),
    ("churn-steady-4k", DEFAULT_SEED, 0x509c_3876_173f_72bb),
    ("churn-steady-4k", HELD_OUT_SEED, 0x46dc_f7d1_391d_4477),
    ("churn-storm-4k", DEFAULT_SEED, 0xdc70_a53b_831a_e478),
    ("churn-storm-4k", HELD_OUT_SEED, 0x6dbd_2703_debc_aaef),
    ("scale-1m", DEFAULT_SEED, 0x4a67_a4de_4611_8b9d),
    ("scale-1m", HELD_OUT_SEED, 0x39be_ff03_2746_9cf1),
];

/// FNV-1a, 64-bit, fed one little-endian `u64` word at a time.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) -> &mut Self {
        for b in ws.into_iter().flat_map(u64::to_le_bytes) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest recorded for `workload` at `seed`, if there is one.
pub fn recorded(workload: &str, seed: u64) -> Option<u64> {
    RECORDED
        .iter()
        .find(|r| r.0 == workload && r.1 == seed)
        .map(|r| r.2)
}
