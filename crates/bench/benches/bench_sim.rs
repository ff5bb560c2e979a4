//! Benchmarks for the event-driven simulator: events per second under
//! realistic churn + query traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_model::config::Config;
use sp_sim::engine::{SimOptions, Simulation};

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    for &(peers, duration) in &[(200usize, 600.0f64), (1000, 300.0)] {
        group.bench_with_input(
            BenchmarkId::new("steady_state", format!("{peers}p_{duration}s")),
            &(peers, duration),
            |b, &(peers, duration)| {
                let cfg = Config {
                    graph_size: peers,
                    cluster_size: 10,
                    ..Config::default()
                };
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut sim = Simulation::new(
                        &cfg,
                        SimOptions {
                            duration_secs: duration,
                            seed,
                            ..Default::default()
                        },
                    );
                    sim.run()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
