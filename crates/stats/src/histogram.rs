//! Histograms and per-key grouped statistics.
//!
//! Figures 7 and 8 of the paper are *histograms over outdegree*: for
//! each number of neighbors, they plot the mean load / mean number of
//! results of all super-peers with that outdegree, with one-standard-
//! deviation bars. [`GroupedStats`] accumulates exactly that.
//! [`Histogram`] is a plain fixed-width-bin frequency histogram used to
//! check generated degree sequences against the power law.
//! [`DurationHistogram`] is the integer log-linear histogram every
//! simulator duration is recorded in.

use std::collections::BTreeMap;

use crate::summary::OnlineStats;

/// Linear sub-buckets per power of two in a [`DurationHistogram`]: a
/// bucket is at most `1/SUB_BUCKETS` of its lower edge wide.
pub const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Integer log-linear (HDR-style) histogram of nanosecond durations.
///
/// Values below [`SUB_BUCKETS`] get a bucket each; every power of two
/// above is split into [`SUB_BUCKETS`] equal sub-buckets, with no
/// ceiling. A [`quantile_ns`] reading is never below the true quantile
/// and at most `1/SUB_BUCKETS` above it.
///
/// All state is integer, so [`merge`] is commutative and associative
/// and two histograms compare bitwise. Bucket storage grows to the
/// highest bucket recorded: an idle instance owns no heap, and the
/// bucket vector's last entry is always non-zero.
///
/// [`quantile_ns`]: DurationHistogram::quantile_ns
/// [`merge`]: DurationHistogram::merge
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurationHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Bucket index of a value.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((u64::from(shift) + 1) * SUB_BUCKETS + (ns >> shift) - SUB_BUCKETS) as usize
}

/// Largest value that lands in bucket `i`.
fn upper_edge(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let shift = i / SUB_BUCKETS - 1;
    let lower = (i % SUB_BUCKETS + SUB_BUCKETS) << shift;
    lower | ((1u64 << shift) - 1)
}

impl DurationHistogram {
    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        let i = bucket_of(ns);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations, nanoseconds (saturating).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile: the upper edge of the bucket holding rank
    /// `ceil(q·count)` (at least 1), clamped to the maximum. 0 when
    /// empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_edge(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Largest recorded duration, nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Folds another histogram into this one. The result equals having
    /// recorded both sample sets into one histogram, in any order.
    pub fn merge(&mut self, other: &DurationHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket counts up to the highest non-empty bucket.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from [`buckets`](Self::buckets), `total_ns`
    /// and `max_ns`; `None` if the last bucket is empty or does not
    /// hold the maximum, which no recording produces.
    pub fn from_parts(buckets: Vec<u64>, total_ns: u64, max_ns: u64) -> Option<DurationHistogram> {
        let empty = buckets.is_empty();
        let top = if empty && max_ns == 0 {
            0
        } else {
            bucket_of(max_ns) + 1
        };
        if buckets.len() != top || buckets.last() == Some(&0) || (empty && total_ns != 0) {
            return None;
        }
        let count = buckets.iter().try_fold(0u64, |n, &c| n.checked_add(c))?;
        Some(DurationHistogram {
            buckets,
            count,
            total_ns,
            max_ns,
        })
    }
}

/// Whole nanoseconds in a duration of `secs` seconds, for recording a
/// simulated time span into a [`DurationHistogram`] (rounded; negative
/// or NaN spans record as 0).
pub fn ns_from_secs(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// Fixed-width-bin frequency histogram over `[low, high)`.
///
/// Out-of-range observations are clamped into the first/last bin and
/// counted separately so tests can assert none occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `low >= high`.
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(low < high, "need low < high");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.low {
            self.underflow += 1;
            self.bins[0] += 1;
            return;
        }
        if x >= self.high {
            self.overflow += 1;
            let last = self.bins.len() - 1;
            self.bins[last] += 1;
            return;
        }
        let width = (self.high - self.low) / self.bins.len() as f64;
        let idx = (((x - self.low) / width) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Observations that fell below `low` (clamped into bin 0).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `high` (clamped into the last bin).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// `(bin_center, count)` pairs, in order.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.high - self.low) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.low + (i as f64 + 0.5) * width, c))
    }
}

/// Streaming statistics grouped by an integer key (e.g. outdegree).
///
/// Backed by a `BTreeMap` so iteration is sorted by key, matching how
/// the paper's histogram figures order their x axis.
///
/// # Examples
///
/// ```
/// use sp_stats::GroupedStats;
///
/// let mut g = GroupedStats::new();
/// g.push(3, 10.0);  // a super-peer with 3 neighbors, load 10
/// g.push(3, 14.0);
/// g.push(7, 99.0);
/// assert_eq!(g.get(3).unwrap().mean(), 12.0);
/// assert_eq!(g.keys().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupedStats {
    groups: BTreeMap<u64, OnlineStats>,
}

impl GroupedStats {
    /// Creates an empty grouping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records observation `x` under `key`.
    pub fn push(&mut self, key: u64, x: f64) {
        self.groups.entry(key).or_default().push(x);
    }

    /// Statistics for `key`, if any observation was recorded.
    pub fn get(&self, key: u64) -> Option<&OnlineStats> {
        self.groups.get(&key)
    }

    /// Sorted iterator over keys.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.keys().copied()
    }

    /// Sorted iterator over `(key, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &OnlineStats)> + '_ {
        self.groups.iter().map(|(&k, s)| (k, s))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Merges another grouping into this one.
    pub fn merge(&mut self, other: &GroupedStats) {
        for (&k, s) in &other.groups {
            self.groups.entry(k).or_default().merge(s);
        }
    }

    /// Grand statistics over all observations regardless of key.
    pub fn overall(&self) -> OnlineStats {
        let mut all = OnlineStats::new();
        for s in self.groups.values() {
            all.merge(s);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_observations() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        for i in 0..10 {
            assert_eq!(h.count(i), 1, "bin {i}");
        }
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_clamps_and_counts_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-5.0);
        h.push(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn histogram_boundary_goes_to_upper_bin() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(3.0); // exactly on the 3rd bin's lower edge
        assert_eq!(h.count(3), 1);
    }

    #[test]
    fn histogram_centers() {
        let h = Histogram::new(0.0, 4.0, 4);
        let centers: Vec<f64> = h.centers().map(|(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn grouped_stats_by_key() {
        let mut g = GroupedStats::new();
        g.push(2, 1.0);
        g.push(2, 3.0);
        g.push(5, 10.0);
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(2).unwrap().mean(), 2.0);
        assert_eq!(g.get(5).unwrap().count(), 1);
        assert!(g.get(3).is_none());
    }

    #[test]
    fn grouped_merge_and_overall() {
        let mut a = GroupedStats::new();
        a.push(1, 1.0);
        a.push(2, 2.0);
        let mut b = GroupedStats::new();
        b.push(2, 4.0);
        b.push(3, 9.0);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(2).unwrap().count(), 2);
        assert_eq!(a.get(2).unwrap().mean(), 3.0);
        let overall = a.overall();
        assert_eq!(overall.count(), 4);
        assert!((overall.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn grouped_iteration_is_sorted() {
        let mut g = GroupedStats::new();
        for k in [9u64, 1, 5, 3] {
            g.push(k, 0.0);
        }
        let keys: Vec<u64> = g.keys().collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        // Values below 16 are exact; each power of two above opens a row
        // of 16 sub-buckets, up to the one holding u64::MAX.
        for v in 0..SUB_BUCKETS {
            assert_eq!(upper_edge(bucket_of(v)), v);
        }
        for exp in SUB_BITS..64 {
            let row = bucket_of(1 << exp);
            assert_eq!(row % SUB_BUCKETS as usize, 0, "2^{exp}");
            assert_eq!(upper_edge(row - 1), (1 << exp) - 1, "2^{exp} - 1");
        }
        assert_eq!(upper_edge(bucket_of(u64::MAX)), u64::MAX);
        let mut h = DurationHistogram::default();
        assert!(h.buckets().is_empty(), "an idle histogram owns no heap");
        for ns in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(ns);
        }
        assert_eq!((h.count(), h.max_ns()), (8, u64::MAX));
        assert_eq!(h.quantile_ns(0.5), 3);
        assert_eq!(h.quantile_ns(0.75), 1023);
        assert_eq!(h.quantile_ns(0.875), 1024 + 63, "2^10 opens 64-ns buckets");
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn reconnect_histogram_buckets_by_log2() {
        // Simulated seconds record as whole nanoseconds; each reading
        // sits at most 1/16 above the recorded time.
        let mut h = DurationHistogram::default();
        for secs in [0.0, 0.5, 1.0, 3.0, 1024.0] {
            h.record(ns_from_secs(secs));
        }
        for (q, ns) in [
            (0.2, 0),
            (0.4, 5e8 as u64),
            (0.6, 1e9 as u64),
            (0.8, 3e9 as u64),
        ] {
            assert!((ns..=ns + ns / 16).contains(&h.quantile_ns(q)), "{ns} ns");
        }
        assert_eq!((h.count(), h.max_ns()), (5, 1024 * 1_000_000_000));
        assert_eq!(h.total_ns(), 1_028_500_000_000);
    }

    #[test]
    #[should_panic(expected = "need low < high")]
    fn bad_histogram_range_panics() {
        Histogram::new(1.0, 1.0, 4);
    }
}
