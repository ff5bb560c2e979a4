//! `churn-steady-4k` and `churn-storm-4k`: the churn engine
//! (`sp_sim::Simulation`) on 4 000 peers in clusters of 10 for 1 800
//! simulated seconds, from an empty network at bootstrap.
//!
//! The steady workload plays an empty scenario plan, so fault, repair and
//! overload code is inert and queries dominate. The storm workload runs
//! at k = 2 under the canonical crash storm (two 25 % crash waves inside
//! a 30 % message-loss window), promote-and-recruit repair, and a 10×
//! flash crowd over the middle 60 % of the run under the capacity-sized
//! overload policy.

use sp_model::config::Config;
use sp_model::overload::OverloadPolicy;
use sp_model::repair::RepairPolicy;
use sp_model::scenario::{PhaseKind, PhaseSpec, ScenarioPlan};
use sp_sim::engine::RawMetrics;
use sp_sim::metrics::EventKind;
use sp_sim::scenario::crash_storm_plan;
use sp_sim::{SimOptions, Simulation};

use crate::digest::Digest;
use crate::measure::{median, sample_setup, timed, Iteration, Report};

const DURATION_SECS: f64 = 1800.0;
/// Simulated seconds per traced slice.
const SLICE_SECS: f64 = 60.0;

/// Which churn workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Churn {
    Steady,
    Storm,
}

struct Workload {
    cfg: Config,
    opts: SimOptions,
    plan: ScenarioPlan,
}

impl Workload {
    fn new(kind: Churn, seed: u64) -> Self {
        let cfg = Config {
            graph_size: 4000,
            cluster_size: 10,
            ..Config::default()
        };
        let opts = SimOptions {
            duration_secs: DURATION_SECS,
            seed,
            fault_seed: seed,
            scenario_seed: seed,
            ..SimOptions::default()
        };
        if kind == Churn::Steady {
            return Workload {
                cfg,
                opts,
                plan: ScenarioPlan::default(),
            };
        }
        let cfg = cfg.with_redundancy(true);
        let plan = ScenarioPlan {
            phases: vec![PhaseSpec {
                from_secs: 0.2 * DURATION_SECS,
                until_secs: 0.8 * DURATION_SECS,
                rate_mult: 1.0,
                kind: PhaseKind::FlashCrowd {
                    query_rate_mult: 10.0,
                    hot_shift: 0,
                },
            }],
            faults: crash_storm_plan(DURATION_SECS),
            repair: RepairPolicy::PromotePartner,
            overload: OverloadPolicy::sized_for(&cfg),
            ..ScenarioPlan::default()
        };
        plan.validate().expect("the storm plan is valid");
        Workload { cfg, opts, plan }
    }

    fn build(&self, profile: bool) -> Simulation {
        let opts = SimOptions {
            profile,
            ..self.opts
        };
        Simulation::with_scenario(&self.cfg, opts, &self.plan)
    }
}

/// Output checks on one finished run; returns its digest.
fn check(report: &mut Report, kind: Churn, sim: &Simulation, m: &RawMetrics) -> u64 {
    let (f, ov, rp) = (&m.faults, &m.overload, &m.repair);
    report.check("churn: fault ledger conserved", f.conserved());
    if sim.overload_active() {
        report.check(
            "churn: overload ledger conserved",
            ov.conserved(f.queries_issued, f.queries_lost),
        );
    }
    // The workload exercises what it is named for.
    match kind {
        Churn::Steady => report.check(
            "churn-steady: fault, repair and overload layers inert",
            f.injected_crash + f.injected_drop + rp.promotions + ov.accounted() == 0,
        ),
        Churn::Storm => report.check(
            "churn-storm: crashes, drops, promotions and sheds all occur",
            f.injected_crash > 0
                && f.injected_drop > 0
                && rp.promotions > 0
                && ov.accounted() > ov.delivered,
        ),
    }
    Digest::new()
        .words(sim.observability().delivered)
        .words([
            m.queries,
            m.cluster_failures,
            m.orphan_events,
            m.adapt_actions,
        ])
        .words([
            f.injected_crash,
            f.injected_drop,
            f.injected_delay,
            f.injected_partition_block,
            f.injected_flaky,
            f.queries_issued,
            f.answered_direct,
            f.recovered_retry,
            f.recovered_failover,
            f.queries_lost,
            f.orphan_gave_up,
        ])
        .words([
            rp.promotions,
            rp.partner_recruitments,
            rp.reindexed_clients,
            rp.abandoned,
            rp.queries_during_outage,
            u64::from(rp.final_components),
        ])
        .words([
            ov.delivered,
            ov.shed_discipline,
            ov.shed_dead,
            ov.shed_residual,
            ov.rejected_queue,
            ov.rejected_budget,
            ov.rehomed,
            ov.brownout_entries,
            ov.brownout_queries,
            ov.peak_depth,
        ])
        .finish()
}

/// One timed iteration: set-up is `Simulation::with_scenario`, the run
/// is one `Simulation::run` call. Events are queue events delivered,
/// sources are query events.
pub fn iteration(kind: Churn, seed: u64, report: &mut Report, digests: &mut Vec<u64>) -> Iteration {
    let w = Workload::new(kind, seed);
    let mut setups = Vec::new();
    sample_setup(&mut setups, || w.build(false));
    let mut sim = w.build(false);
    let (m, run_s) = timed(|| sim.run());
    digests.push(check(report, kind, &sim, &m));
    Iteration {
        setups,
        run_s,
        events: sim.events_delivered() as f64,
        sources: sim.observability().delivered_of(EventKind::Query) as f64,
    }
}

/// Traced pass: a warm-up run, one untraced run, then one run with the
/// engine's per-event-kind profile on, driven by `run_to` in fixed slices
/// of simulated time (bitwise identical to one `run`).
pub fn trace(kind: Churn, seed: u64, report: &mut Report, digests: &mut Vec<u64>) {
    let w = Workload::new(kind, seed);
    w.build(false).run();
    let mut sim = w.build(false);
    let (m, untraced_s) = timed(|| sim.run());
    digests.push(check(report, kind, &sim, &m));

    let mut sim = w.build(true);
    let mut slices = Vec::new();
    let mut bound = 0.0;
    while bound < DURATION_SECS {
        bound = (bound + SLICE_SECS).min(DURATION_SECS);
        slices.push(timed(|| sim.run_to(bound)).1);
    }
    // Every event is dispatched; `run` only finalizes the accounting.
    let (m, finalize_s) = timed(|| sim.run());
    digests.push(check(report, kind, &sim, &m));
    let traced_s = slices.iter().sum::<f64>() + finalize_s;

    let obs = sim.observability();
    let wall = |k: EventKind| &obs.wall[k as usize];
    let secs = |k: EventKind| wall(k).total_ns() as f64 * 1e-9;
    for (name, k) in [
        ("engine.query_s", EventKind::Query),
        ("engine.join_s", EventKind::Join),
        ("engine.leave_s", EventKind::Leave),
        ("engine.update_s", EventKind::Update),
        ("engine.rejoin_s", EventKind::Rejoin),
        ("engine.recruit_s", EventKind::Recruit),
        ("engine.repair_s", EventKind::Repair),
        ("engine.fault_s", EventKind::Fault),
        ("engine.phase_s", EventKind::Phase),
        ("engine.sample_s", EventKind::Sample),
    ] {
        report.metric(name, secs(k), "s");
    }
    let q = wall(EventKind::Query);
    report.metric("engine.query_mean_us", q.mean_ns() * 1e-3, "us");
    report.metric(
        "engine.query_p99_us",
        q.quantile_ns(0.99) as f64 * 1e-3,
        "us",
    );
    report.metric("engine.query_max_us", q.max_ns() as f64 * 1e-3, "us");
    report.metric("engine.slice_s_median", median(&slices), "s");
    report.metric(
        "engine.slice_s_max",
        slices.iter().copied().fold(0.0, f64::max),
        "s",
    );

    let delivered = sim.events_delivered() as f64;
    report.metric("events.cancelled", obs.cancelled as f64, "count");
    report.metric("events.stale", obs.stale as f64, "count");
    report.metric(
        "events.queue_high_water",
        obs.queue_high_water as f64,
        "count",
    );
    report.metric(
        "events.useful_ratio",
        delivered / (delivered + (obs.cancelled + obs.stale) as f64),
        "ratio",
    );

    let (f, ov) = (&m.faults, &m.overload);
    let refused = ov.accounted() - ov.delivered;
    report.metric("faults.injected_drop", f.injected_drop as f64, "count");
    report.metric("faults.recovered", f.queries_recovered() as f64, "count");
    report.metric("repair.promotions", m.repair.promotions as f64, "count");
    report.metric(
        "overload.shed_frac",
        refused as f64 / f.queries_issued.max(1) as f64,
        "fraction",
    );
    report.metric(
        "overload.brownout_entries",
        ov.brownout_entries as f64,
        "count",
    );

    // ROADMAP item 2(a) asks the layers to cover 95% of the run. Queue
    // dispatch runs outside every handler timer, so a run with many cheap
    // events falls short; that is a finding about the engine's spans, not
    // a wrong output, so it is reported rather than checked.
    let covered: f64 = EventKind::ALL.iter().map(|&k| secs(k)).sum();
    let coverage = covered / traced_s;
    if coverage < 0.95 {
        println!("note: event-kind self times cover {coverage:.3} of the traced run (< 0.95)");
    }
    report.metric("trace.run_s", traced_s, "s");
    report.metric("trace.overhead", traced_s / untraced_s, "ratio");
    report.metric("trace.coverage", coverage, "fraction");
}
