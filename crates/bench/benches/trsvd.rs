//! Microbenchmark of the TRSVD step on a matricized TTMc result.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::random_tensor;
use hooi::config::TrsvdBackend;
use hooi::symbolic::SymbolicTtmc;
use hooi::trsvd::trsvd_factor;
use hooi::ttmc::ttmc_mode;
use linalg::Matrix;
use std::time::Duration;

fn bench_trsvd(c: &mut Criterion) {
    let mut group = c.benchmark_group("trsvd");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let tensor = random_tensor(&[4000, 300, 200], 50_000, 3);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, 10, m as u64))
        .collect();
    let sym = SymbolicTtmc::build(&tensor);
    let compact = ttmc_mode(&tensor, sym.mode(0), &factors, 0);

    group.bench_function("lanczos_rank10", |b| {
        b.iter(|| {
            trsvd_factor(
                &compact,
                sym.mode(0),
                tensor.dims()[0],
                10,
                TrsvdBackend::Lanczos,
                1,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trsvd);
criterion_main!(benches);
