//! `analyze-100k`: the designer's path. `NetworkInstance::generate`
//! builds a power-law overlay of 100 000 users in clusters of 10, then
//! `analysis::analyze` (Fast engine) floods every source cluster at
//! TTL 7 and charges the Table 2 costs.

use sp_graph::FloodScratch;
use sp_model::analysis::{analyze, AnalysisOptions, AnalysisResult};
use sp_model::config::Config;
use sp_model::instance::NetworkInstance;
use sp_model::query_model::QueryModel;
use sp_stats::SpRng;

use crate::digest::Digest;
use crate::measure::{count_allocs, median, sample_setup, timed, workers, Iteration, Report};

fn config() -> Config {
    Config {
        graph_size: 100_000,
        cluster_size: 10,
        ttl: 7,
        ..Config::default()
    }
}

fn generate(cfg: &Config, seed: u64) -> (NetworkInstance, SpRng) {
    let mut rng = SpRng::seed_from_u64(seed);
    let inst = NetworkInstance::generate(cfg, &mut rng).expect("the workload config is valid");
    (inst, rng)
}

fn analyze_with(inst: &NetworkInstance, rng: &mut SpRng, threads: usize) -> AnalysisResult {
    let model = QueryModel::from_config(&inst.config.query_model);
    let opts = AnalysisOptions {
        threads,
        ..AnalysisOptions::default()
    };
    analyze(inst, &model, &opts, rng)
}

/// Output checks on one result; returns its digest. Aggregate in-bandwidth
/// equals aggregate out-bandwidth: every bit sent is received by a peer.
fn check(report: &mut Report, r: &AnalysisResult) -> u64 {
    let a = r.metrics.aggregate;
    report.check(
        "analysis: aggregate in_bw == out_bw",
        (a.in_bw - a.out_bw).abs() <= 1e-9 * a.in_bw.abs().max(a.out_bw.abs()),
    );
    let m = &r.metrics;
    Digest::new()
        .words([a.in_bw, a.out_bw, a.proc].map(f64::to_bits))
        .words([m.num_clusters, m.num_peers, m.num_partners, m.num_clients].map(|n| n as u64))
        .finish()
}

/// One timed iteration: set-up is `generate`, the run is one `analyze`
/// call. Events are flood deliveries (mean reach × sources).
pub fn iteration(seed: u64, report: &mut Report, digests: &mut Vec<u64>) -> Iteration {
    let cfg = config();
    let mut setups = Vec::new();
    sample_setup(&mut setups, || generate(&cfg, seed));
    let (inst, mut rng) = generate(&cfg, seed);
    let (r, run_s) = timed(|| analyze_with(&inst, &mut rng, workers()));
    digests.push(check(report, &r));
    let sources = r.metrics.num_clusters as f64;
    Iteration {
        setups,
        run_s,
        events: r.metrics.mean_reach_clusters * sources,
        sources,
    }
}

/// Traced pass: a warm-up and an untraced `analyze`, then spans around
/// every source's `Topology::flood_into` on one thread, a one-thread
/// `analyze` and a `workers()`-thread `analyze`, with the allocation
/// counter on.
pub fn trace(seed: u64, report: &mut Report, digests: &mut Vec<u64>) {
    let cfg = config();
    let mut generate_s = Vec::new();
    sample_setup(&mut generate_s, || generate(&cfg, seed));
    let (inst, mut rng) = generate(&cfg, seed);
    let threads = workers();

    analyze_with(&inst, &mut rng, threads);
    let (r, untraced_s) = timed(|| analyze_with(&inst, &mut rng, threads));
    digests.push(check(report, &r));

    let n = inst.num_clusters();
    let mut scratch = FloodScratch::new();
    let (reach_total, flood_s) = timed(|| {
        (0..n as u32)
            .map(|src| {
                inst.topology.flood_into(&mut scratch, src, cfg.ttl);
                scratch.reach() as u64
            })
            .sum::<u64>()
    });
    let ((one, one_s), allocs) = count_allocs(|| timed(|| analyze_with(&inst, &mut rng, 1)));
    digests.push(check(report, &one));
    let ((all, traced_s), _) = count_allocs(|| timed(|| analyze_with(&inst, &mut rng, threads)));
    digests.push(check(report, &all));

    let reach_mean = reach_total as f64 / n as f64;
    report.check(
        "traverse: mean flood reach == analysis mean reach",
        (reach_mean - one.metrics.mean_reach_clusters).abs() <= 1e-9 * reach_mean,
    );
    let charge_s = one_s - flood_s;
    report.metric("instance.generate_s", median(&generate_s), "s");
    report.metric("traverse.flood_s", flood_s, "s");
    report.metric("traverse.reach_mean", reach_mean, "count");
    report.metric("analysis.charge_s", charge_s, "s");
    report.metric("analysis.thread_speedup", one_s / traced_s, "ratio");
    report.metric("analysis.allocs", allocs as f64, "count");
    report.metric("trace.run_s", traced_s, "s");
    report.metric("trace.overhead", traced_s / untraced_s, "ratio");
    // Charging is measured as the remainder of the one-thread call, so
    // the layers cover it by construction until `analyze` has spans of
    // its own.
    report.metric("trace.coverage", (flood_s + charge_s) / one_s, "fraction");
}
