//! Criterion bench: vectorized scan throughput on the simulated CPU,
//! by predicate count and by PEO quality. The simulator itself is the
//! system under test here — these numbers bound how much paper-scale
//! experimentation is feasible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use popt_bench::figures::workload::{uniform_plan, uniform_table};
use popt_cpu::{CpuConfig, SimCpu};

const ROWS: usize = 1 << 16;

fn scan_by_predicates(c: &mut Criterion) {
    let table = uniform_table(ROWS, 5, 0xBE7C);
    let mut group = c.benchmark_group("scan_by_predicates");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(ROWS as u64));
    for preds in [1usize, 3, 5] {
        let plan = uniform_plan(&vec![0.5; preds]);
        let peo: Vec<usize> = (0..preds).collect();
        let compiled = plan.compile(&table, &peo).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(preds), &preds, |b, _| {
            b.iter(|| {
                let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
                black_box(compiled.run_range(&mut cpu, 0, ROWS))
            })
        });
    }
    group.finish();
}

fn scan_best_vs_worst_order(c: &mut Criterion) {
    let table = uniform_table(ROWS, 3, 0xBE7D);
    let plan = uniform_plan(&[0.05, 0.5, 0.95]);
    let mut group = c.benchmark_group("scan_order");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for (name, peo) in [
        ("ascending", vec![0usize, 1, 2]),
        ("descending", vec![2usize, 1, 0]),
    ] {
        let compiled = plan.compile(&table, &peo).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
                black_box(compiled.run_range(&mut cpu, 0, ROWS))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, scan_by_predicates, scan_best_vs_worst_order);
criterion_main!(benches);
