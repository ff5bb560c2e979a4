//! Overlay self-healing: repair bookkeeping of the churn engine.
//!
//! When fault injection kills every partner of a cluster and the run's
//! [`RepairPolicy`](sp_model::repair::RepairPolicy) promotes, the
//! cluster does not dissolve. It enters a *headless window*: clients
//! stay attached (their queries go unanswered and are charged as
//! lost), the overlay edges stay up, and an
//! [`Event::Repair`](crate::events::Event::Repair) is scheduled a
//! short, deterministic delay later — the simulated cost of detecting
//! the outage and running the Section 5.3 election. At repair time the
//! clients elect a replacement super-peer: the highest-capacity
//! eligible client (most files shared, ties broken by lowest peer id —
//! a pure function of cluster state, no RNG draw, identical in both
//! engines). The winner is promoted in place, so it *inherits the dead
//! super-peer's neighbor links* (they belong to the cluster slot), and
//! re-indexes every adopted client at the paper's per-metadata join
//! cost (Table 2). Under
//! [`RepairPolicy::PromotePartner`](sp_model::repair::RepairPolicy::PromotePartner)
//! the repaired cluster then recruits a replacement partner through
//! the ordinary recruitment machinery, paying the full
//! index-mirroring cost, to restore k-redundancy.
//!
//! Everything observable lives in [`RepairMetrics`], which is embedded
//! in `RawMetrics` so the engine-equivalence tests cover repair
//! bitwise. The reachability timeline is fed by the
//! `sp_graph::PartitionMonitor` union-find, observed at every sample
//! tick and immediately after every crash fault (the dip a 120-second
//! sampling grid would miss).

use crate::events::SimTime;
use sp_stats::DurationHistogram;

/// One observation of super-peer overlay connectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachPoint {
    /// Simulated time of the observation, seconds.
    pub time: SimTime,
    /// Connected components of the live super-peer graph.
    pub components: u32,
    /// Fraction of live peers inside the largest component, in
    /// `[0, 1]` (1.0 when the network is empty).
    pub reachable_fraction: f64,
}

/// Self-healing counters, embedded in `RawMetrics` so the
/// engine-equivalence checks cover them bitwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairMetrics {
    /// Clients elected and promoted to replacement super-peers.
    pub promotions: u64,
    /// Replacement partners recruited by repaired clusters
    /// (`promote+partner` only).
    pub partner_recruitments: u64,
    /// Adopted clients re-indexed by promoted super-peers.
    pub reindexed_clients: u64,
    /// Metadata bytes transferred by repair re-indexing.
    pub reindex_bytes: f64,
    /// Headless clusters whose clients all left before the repair
    /// event fired (the cluster dissolves like an unrepaired failure).
    pub abandoned: u64,
    /// Client queries issued during a headless window (charged as
    /// lost — there is no super-peer to answer them).
    pub queries_during_outage: u64,
    /// Time from super-peer death to completed election, per repair,
    /// nanoseconds of simulated time.
    pub time_to_repair: DurationHistogram,
    /// Connectivity timeline: sample ticks, post-crash probes, and the
    /// final state at simulation end.
    pub reachability: Vec<ReachPoint>,
    /// Super-peer graph components at simulation end.
    pub final_components: u32,
    /// Largest-component peer fraction at simulation end.
    pub final_reachable_fraction: f64,
}

impl RepairMetrics {
    /// Smallest reachable fraction observed at or after `from_secs`
    /// (1.0 when no observation qualifies — an empty network is
    /// trivially whole).
    pub fn min_reachable_since(&self, from_secs: f64) -> f64 {
        self.reachability
            .iter()
            .filter(|p| p.time >= from_secs)
            .map(|p| p.reachable_fraction)
            .fold(1.0, f64::min)
    }

    /// Largest live component count observed over the whole run (0
    /// when nothing was observed).
    pub fn max_components(&self) -> u32 {
        self.reachability
            .iter()
            .map(|p| p.components)
            .max()
            .unwrap_or(0)
    }
}

/// Per-cluster-slot headless-window bookkeeping. The churn engine
/// keeps a `Vec<RepairPending>` parallel to the cluster slab; the slot is
/// `active` from the moment the last partner dies to the moment the
/// repair election runs (or the last client leaves).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RepairPending {
    /// Whether this cluster slot is currently headless awaiting
    /// repair.
    pub active: bool,
    /// When the last partner died (for the time-to-repair histogram).
    pub down_since: SimTime,
    /// Whether an adaptation tick was swallowed during the headless
    /// window and must be rescheduled after repair.
    pub adapt_stalled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_reachable_ignores_earlier_points() {
        let mut m = RepairMetrics::default();
        m.reachability.push(ReachPoint {
            time: 10.0,
            components: 1,
            reachable_fraction: 0.2,
        });
        m.reachability.push(ReachPoint {
            time: 50.0,
            components: 2,
            reachable_fraction: 0.8,
        });
        m.reachability.push(ReachPoint {
            time: 90.0,
            components: 1,
            reachable_fraction: 0.95,
        });
        assert_eq!(m.min_reachable_since(0.0), 0.2);
        assert_eq!(m.min_reachable_since(40.0), 0.8);
        assert_eq!(m.min_reachable_since(100.0), 1.0, "no points → whole");
        assert_eq!(m.max_components(), 2);
    }

    #[test]
    fn default_is_empty_and_equal() {
        assert_eq!(RepairMetrics::default(), RepairMetrics::default());
        assert_eq!(RepairMetrics::default().max_components(), 0);
        assert_eq!(RepairPending::default(), RepairPending::default());
        assert!(!RepairPending::default().active);
    }
}
