//! Criterion bench comparing the exhaustive search at one and at four
//! workers (jobs = 1 vs jobs = 4) on the speedup benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p_bench::figures::jobs_programs;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for (name, compiled) in jobs_programs() {
        for jobs in [1usize, 4] {
            group.bench_with_input(BenchmarkId::new(name, jobs), &jobs, |b, &jobs| {
                b.iter(|| {
                    let r = compiled.verify_parallel(jobs);
                    assert!(r.passed());
                    r.stats.unique_states
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
