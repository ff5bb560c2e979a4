//! # sp-sim
//!
//! Discrete-event simulator for super-peer networks, complementing the
//! mean-value analysis of `sp-model` with the *dynamic* phenomena the
//! paper argues about but cannot capture analytically:
//!
//! * **Churn and failover** (Section 3.2): peers join and leave with
//!   heavy-tailed lifespans; when a lone super-peer dies its clients
//!   are orphaned until they find a new cluster, while a k-redundant
//!   virtual super-peer keeps serving as long as one partner survives
//!   and recruits replacements from its clients. The
//!   [`scenario::reliability`] experiment quantifies the availability
//!   gap the paper asserts ("the probability that all partners fail
//!   before any failed partner can be replaced is much lower").
//! * **Steady-state validation**: [`scenario::steady_state`] measures
//!   per-role loads from actual simulated message traffic (same Table 2
//!   cost model) and is compared against the analytic engine in the
//!   integration tests.
//! * **Local adaptation** (Section 5.3): [`scenario::adaptive`] gives
//!   every super-peer a load limit and lets it follow the
//!   `sp-design::local_rules` advisor — accept clients, promote
//!   partners, split, coalesce, grow outdegree, shrink TTL — and
//!   tracks whether the network converges to an efficient,
//!   non-overloaded configuration.
//!
//! Each simulation run is deterministic given a seed and runs on one
//! thread; independent scenario *trials* shard across threads through
//! the same thread-budget cascade as `sp_model::trials`, with per-trial
//! RNG streams keeping the reduced results bitwise identical at any
//! thread count (see [`scenario::run_sim_trials`]).
//!
//! One churn engine, [`engine::Simulation`], is generic over its event
//! queue. The production instantiation (indexed event queue with
//! O(log n) churn cancellation, pooled scratch buffers, cached
//! connection counts) is checked by the oracle instantiation
//! `Simulation<BinaryEventQueue>`, which keeps tombstones in a plain
//! binary heap and re-derives every cache the slow way at each use,
//! asserting it against the cached value. The two produce
//! bitwise-identical [`engine::RawMetrics`] on every seed;
//! `tests/sim_determinism.rs` and the [`campaign`] enforce it. A second
//! engine, [`shard::ShardedSimulation`], trades per-peer lifecycle
//! fidelity for scale: shared-nothing per-shard reactors exchanging messages at
//! tick barriers, bitwise identical at any shard count, sized for
//! million-peer overlays (see the [`shard`] module docs and DESIGN.md
//! §15). The [`metrics`] module adds
//! engine observability: event-rate counters, queue high-water marks,
//! optional per-event-type wall-time histograms, and a structured run
//! manifest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub(crate) mod checkpoint;
pub mod counters;
pub mod engine;
pub mod events;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod overload;
pub mod phases;
pub mod repair;
pub mod scenario;
pub mod shard;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignOptions, CampaignReport, CampaignResume,
    CompletedScenario, Divergence, Quarantine, ScenarioOutcome, CAMPAIGN_SCHEMA_VERSION,
};
pub use engine::{ForwardPolicy, SimOptions, Simulation};
pub use faults::{FaultMetrics, FaultState, QueryOutcome, Submission};
pub use metrics::{EventKind, RunManifest, SimMetrics};
pub use overload::{Admission, OvPoint, OverloadMetrics, OverloadState};
pub use phases::{PhaseAction, ScenarioState};
pub use repair::{ReachPoint, RepairMetrics};
pub use scenario::{
    adaptive, adaptive_trials, crash_storm, crash_storm_trials, reliability, reliability_trials,
    routing, routing_trials, run_sim_trials, steady_state, steady_trials, AdaptOptions, SimReport,
    SimTrialOptions,
};
pub use shard::{ScaleDiag, ScaleMetrics, ScaleOptions, ShardFailure, ShardedSimulation};
