//! Fig. 15: effect of partition size and of the skew-adaptive
//! partition map on join time, over the engine's one partition layout
//! (flat per-cell arrays filled inside the associative scan).

use atgis::{Engine, Query};
use atgis_bench::{RunExt, Workload};
use atgis_geometry::Mbr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_partitioning(c: &mut Criterion) {
    let w = Workload::build(atgis_bench::scaled(2000));
    let threshold = (w.objects / 2) as u64;
    let mut group = c.benchmark_group("fig15_join_configurations");
    group.sample_size(10);
    for cell in [5u32, 10, 40] {
        let e = Engine::builder()
            .threads(2)
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(cell as f64 / 10.0)
            .build();
        // The row name keeps the layout it measures (array store,
        // associative partitioning) so the baseline rows carry over.
        group.bench_with_input(BenchmarkId::new("array_assoc", cell), &e, |b, e| {
            b.iter(|| e.exec1(&Query::join(threshold), &w.osm_g).unwrap())
        });
    }
    group.finish();

    // Adaptive-vs-uniform across partition sizes: the coarser the base
    // grid, the more a hot cell gains from the second-level split.
    let mut group = c.benchmark_group("fig15_adaptive_partition_map");
    group.sample_size(10);
    for cell in [5u32, 10, 40] {
        for (name, target) in [("uniform", 0usize), ("adaptive", 256)] {
            let e = Engine::builder()
                .threads(2)
                .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
                .cell_size(cell as f64 / 10.0)
                .partition_target(target)
                .build();
            group.bench_with_input(BenchmarkId::new(name, cell), &e, |b, e| {
                b.iter(|| e.exec1(&Query::join(threshold), &w.osm_g).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partitioning);
criterion_main!(benches);
