//! Thread-scaling benchmarks of the work-stealing campaign engine: the same
//! corpus executed at 1/2/4/8 workers. The 1-worker point is what
//! `Campaign::run` costs. Near-linear scaling up to the physical core count
//! is the expectation, since cases share no mutable state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use teesec::campaign::PhaseTiming;
use teesec::engine::{Engine, EngineOptions};
use teesec::fuzz::Fuzzer;
use teesec_uarch::CoreConfig;

const CORPUS: usize = 32;

fn bench_engine_scaling(c: &mut Criterion) {
    let cfg = CoreConfig::boom();
    let corpus = Fuzzer::with_target(CORPUS).generate(&cfg);
    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(CORPUS as u64));
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let opts = EngineOptions {
                        threads,
                        ..EngineOptions::default()
                    };
                    Engine::new(cfg.clone(), opts).run_corpus(&corpus, PhaseTiming::default())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
