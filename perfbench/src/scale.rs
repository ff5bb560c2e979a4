//! `scale-1m`: the sharded scale engine (`sp_sim::ShardedSimulation`)
//! on the million-peer Table 1 preset at TTL 3 for 300 simulated
//! seconds. The engine builds its overlay lazily inside `run`, so the
//! overlay build counts toward the run, not the set-up.

use sp_model::config::Config;
use sp_sim::{ScaleMetrics, ScaleOptions, ShardedSimulation};

use crate::digest::Digest;
use crate::measure::{sample_setup, timed, workers, Iteration, Report};

fn config() -> Config {
    Config::scale_preset(1_000_000)
}

fn build(cfg: &Config, seed: u64, shards: usize) -> ShardedSimulation {
    let opts = ScaleOptions {
        duration_secs: 300.0,
        seed,
        shards,
        ..ScaleOptions::default()
    };
    ShardedSimulation::new(cfg, opts)
}

/// Output checks on one run; returns the digest of every counter except
/// the hop and wait histograms.
fn check(report: &mut Report, sim: &ShardedSimulation, m: &ScaleMetrics) -> u64 {
    if sim.overload_active() {
        report.check("scale: overload ledger conserved", m.overload_conserved());
    }
    // Without elections or re-homing every message is a flood hop, and
    // each one is dropped, expired or delivered exactly once.
    if m.elections_held == 0 && m.ov_rehome_sent == 0 {
        report.check(
            "scale: every flood message dropped, expired or delivered",
            m.msgs_sent
                == m.msgs_delivered
                    + m.msgs_dropped_loss
                    + m.msgs_dropped_partition
                    + m.msgs_dropped_dead
                    + m.msgs_expired,
        );
    }
    report.check(
        "scale: hop histogram counts every delivery",
        m.hop_hist.iter().sum::<u64>() == m.msgs_delivered,
    );
    Digest::new()
        .words([
            m.peers,
            m.clusters,
            m.ticks,
            m.queries_issued,
            m.queries_failed,
            m.submissions_flaked,
            m.msgs_sent,
            m.msgs_delivered,
            m.msgs_dropped_loss,
            m.msgs_dropped_partition,
            m.msgs_dropped_dead,
            m.msgs_delayed,
            m.msgs_expired,
            m.results_found,
            m.crashes_injected,
            m.elections_held,
            m.clusters_dead,
            m.reindex_received,
        ])
        .words([
            m.ov_admitted,
            m.ov_rehome_admitted,
            m.ov_rejected_budget,
            m.ov_rejected_queue,
            m.ov_rehome_sent,
            m.ov_handoff_failed,
            m.ov_delivered,
            m.ov_shed_discipline,
            m.ov_shed_dead,
            m.ov_shed_residual,
            m.ov_degraded,
            m.ov_brownout_entries,
            m.ov_brownout_ticks,
            m.ov_wait_ticks,
            m.ov_peak_depth,
        ])
        .finish()
}

/// One timed iteration: set-up is `ShardedSimulation::new`, the run is
/// one `ShardedSimulation::run` call on `workers()` shards. Events are
/// events processed, sources are queries issued.
pub fn iteration(seed: u64, report: &mut Report, digests: &mut Vec<u64>) -> Iteration {
    let cfg = config();
    let shards = workers();
    let mut setups = Vec::new();
    sample_setup(&mut setups, || build(&cfg, seed, shards));
    let mut sim = build(&cfg, seed, shards);
    let (m, run_s) = timed(|| sim.run());
    digests.push(check(report, &sim, &m));
    Iteration {
        setups,
        run_s,
        events: m.events_processed() as f64,
        sources: m.queries_issued as f64,
    }
}

/// Traced pass: a warm-up run, an untraced and a traced run on
/// `workers()` shards, then the same workload on one shard, which must
/// give identical metrics.
pub fn trace(seed: u64, report: &mut Report, digests: &mut Vec<u64>) {
    let cfg = config();
    let shards = workers();
    build(&cfg, seed, shards).run();
    let mut sim = build(&cfg, seed, shards);
    let (m, untraced_s) = timed(|| sim.run());
    digests.push(check(report, &sim, &m));

    let mut sim = build(&cfg, seed, shards);
    let (m, traced_s) = timed(|| sim.run());
    digests.push(check(report, &sim, &m));
    let diag = *sim.diag();

    let mut one = build(&cfg, seed, 1);
    let (m1, run_s_1) = timed(|| one.run());
    digests.push(check(report, &one, &m1));

    let msgs = (diag.cross_shard_msgs + diag.intra_shard_msgs).max(1) as f64;
    report.metric("shard.run_s_1", run_s_1, "s");
    report.metric(
        "shard.parallel_eff",
        run_s_1 / (diag.shards as f64 * traced_s),
        "ratio",
    );
    report.metric("shard.cross_msgs", diag.cross_shard_msgs as f64, "count");
    report.metric("shard.intra_msgs", diag.intra_shard_msgs as f64, "count");
    report.metric(
        "shard.cross_frac",
        diag.cross_shard_msgs as f64 / msgs,
        "fraction",
    );
    report.metric(
        "shard.queue_high_water",
        diag.queue_high_water as f64,
        "count",
    );
    report.metric("trace.run_s", traced_s, "s");
    report.metric("trace.overhead", traced_s / untraced_s, "ratio");
    // One span around the engine's single entry point.
    report.metric("trace.coverage", 1.0, "fraction");
}
