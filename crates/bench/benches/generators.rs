//! Permutation generator throughput and skip-ahead cost: the random stream
//! under fixed-seed sampling (O(1) skip) vs the sequential seeding that
//! `fixed.seed.sampling = "n"` draws (replaying skip) vs complete enumeration
//! (unranking skip).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sprint_core::labels::ClassLabels;
use sprint_core::options::{PmaxtOptions, TestMethod};
use sprint_core::perm::{build_generator, resolve_permutation_count};

fn labels_76() -> ClassLabels {
    let v: Vec<u8> = (0..76).map(|i| u8::from(i >= 38)).collect();
    ClassLabels::new(v, TestMethod::T).unwrap()
}

fn bench_generation(c: &mut Criterion) {
    let labels = labels_76();
    let mut group = c.benchmark_group("generator_next_1000_perms_76_cols");
    let cases = [
        ("fixed_seed", PmaxtOptions::default().permutations(1_000)),
        (
            "sequential",
            PmaxtOptions::default()
                .permutations(1_000)
                .fixed_seed_sampling("n")
                .unwrap(),
        ),
    ];
    for (name, opts) in cases {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut gen = build_generator(&labels, &opts, 1_000).unwrap();
                let mut buf = vec![0u8; 76];
                let mut acc = 0u64;
                while gen.next_into(&mut buf) {
                    acc += buf[0] as u64;
                }
                black_box(acc)
            })
        });
    }
    // Complete enumeration on a smaller design (C(12,6) = 924 arrangements).
    let small: Vec<u8> = (0..12).map(|i| u8::from(i >= 6)).collect();
    let small_labels = ClassLabels::new(small, TestMethod::T).unwrap();
    let opts = PmaxtOptions::default().permutations(0);
    let total = resolve_permutation_count(&small_labels, &opts).unwrap();
    group.bench_function("complete_12c6", |b| {
        b.iter(|| {
            let mut gen = build_generator(&small_labels, &opts, total).unwrap();
            let mut buf = vec![0u8; 12];
            let mut acc = 0u64;
            while gen.next_into(&mut buf) {
                acc += buf[0] as u64;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_skip(c: &mut Criterion) {
    let labels = labels_76();
    let mut group = c.benchmark_group("generator_skip_to_middle_of_150k");
    let b_total = 150_000u64;
    let cases = [
        (
            "fixed_seed_o1",
            PmaxtOptions::default().permutations(b_total),
        ),
        (
            "sequential_replay",
            PmaxtOptions::default()
                .permutations(b_total)
                .fixed_seed_sampling("n")
                .unwrap(),
        ),
    ];
    for (name, opts) in cases {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                let mut gen = build_generator(&labels, &opts, b_total).unwrap();
                gen.skip(black_box(b_total / 2));
                let mut buf = vec![0u8; 76];
                gen.next_into(&mut buf);
                black_box(buf[0])
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation, bench_skip
}
criterion_main!(benches);
