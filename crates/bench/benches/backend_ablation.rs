//! Backend ablation: the SPMD message-passing driver (mpi-sim, as in the
//! paper) vs the engine's worker threads in one process, computing
//! identical counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use microarray::prelude::*;
use sprint_core::maxt::{maxt_with_config, EngineConfig};
use sprint_core::options::PmaxtOptions;
use sprint_core::pmaxt::pmaxt;

fn bench_backends(c: &mut Criterion) {
    let ds = SynthConfig::two_class(120, 38, 38).seed(10).generate();
    let opts = PmaxtOptions::default().permutations(300);
    let mut group = c.benchmark_group("backend_120x76_b300");
    for workers in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("mpi_sim", workers), &workers, |b, &w| {
            b.iter(|| {
                black_box(
                    pmaxt(&ds.matrix, &ds.labels, &opts, w)
                        .unwrap()
                        .result
                        .b_used,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("threads", workers), &workers, |b, &w| {
            let cfg = EngineConfig::explicit(w, 0);
            b.iter(|| {
                let run = maxt_with_config(&ds.matrix, &ds.labels, &opts, cfg).unwrap();
                black_box(run.b_used)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_backends
}
criterion_main!(benches);
