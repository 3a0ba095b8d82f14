//! Micro-benchmarks of the building blocks: device primitives, combining,
//! bulk build, STM transactions, kernel launch.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use eirene_bench::harness::{default_mix, spec_for};
use eirene_btree::build::{arena_budget, bulk_build};
use eirene_core::plan::build_plan;
use eirene_primitives::radix_sort_pairs;
use eirene_sim::{Device, DeviceConfig, GlobalMemory, WarpCtx, WarpStats};
use eirene_stm::{Stm, TxScratch};
use eirene_workloads::WorkloadGen;
use rand::{Rng, SeedableRng};

fn bench_radix_sort(c: &mut Criterion) {
    let mut g = c.benchmark_group("radix_sort");
    let cfg = DeviceConfig::default();
    for n in [1usize << 12, 1 << 16] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || (keys.clone(), (0..n as u32).collect::<Vec<u32>>()),
                |(mut k, mut p)| radix_sort_pairs(&mut k, &mut p, &cfg),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_combine_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("combine_plan");
    let cfg = DeviceConfig::default();
    for n in [1usize << 12, 1 << 16] {
        let spec = spec_for(14, n, default_mix(), 42);
        let batch = WorkloadGen::new(spec).next_batch();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| build_plan(&batch, &cfg))
        });
    }
    g.finish();
}

fn bench_bulk_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("bulk_build");
    g.sample_size(10);
    for n in [1usize << 14, 1 << 16] {
        let pairs: Vec<(u64, u64)> = (1..=n as u64).map(|i| (2 * i, 2 * i + 1)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                || GlobalMemory::new(arena_budget(n, 64)),
                |mem| bulk_build(&mem, &pairs),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_stm_tx(c: &mut Criterion) {
    let dev = Device::new(
        1 << 16,
        DeviceConfig {
            yield_interval: 0,
            ..Default::default()
        },
    );
    let stm = Stm::new(dev.mem(), 1 << 10);
    let cells: Vec<u64> = (0..64).map(|_| dev.mem().alloc(1)).collect();
    c.bench_function("stm_read_write_commit", |b| {
        let mut stats = WarpStats::default();
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0, &mut stats);
        let mut scratch = TxScratch::default();
        let mut i = 0usize;
        b.iter(|| {
            let cell = cells[i % cells.len()];
            i += 1;
            stm.run(&mut ctx, &mut scratch, 8, |tx, ctx| {
                let v = tx.read(ctx, cell)?;
                tx.write(ctx, cell, v + 1)
            })
            .unwrap();
        })
    });
}

fn bench_launch_overhead(c: &mut Criterion) {
    let dev = Device::new(1 << 12, DeviceConfig::default());
    c.bench_function("empty_kernel_launch_256_warps", |b| {
        b.iter(|| dev.launch("noop", 256, |_, _| {}))
    });
}

criterion_group!(
    micro,
    bench_radix_sort,
    bench_combine_plan,
    bench_bulk_build,
    bench_stm_tx,
    bench_launch_overhead
);
criterion_main!(micro);
