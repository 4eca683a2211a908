//! One Criterion benchmark per paper table/figure: each runs the full
//! regeneration kernel (quick profile) so regressions in any experiment
//! pipeline are caught, and the harness cost per artifact is documented.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use strat_sim::runner::{self, ExperimentContext};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_quick");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    let ctx = ExperimentContext {
        quick: true,
        seed: 2007,
    };
    for entry in runner::registry() {
        group.bench_function(entry.id, |b| {
            b.iter(|| {
                let result = entry.run(&ctx);
                assert!(
                    result.all_passed(),
                    "{} shape checks failed during benchmarking",
                    entry.id
                );
                result
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
