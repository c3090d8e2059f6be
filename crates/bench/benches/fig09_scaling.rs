//! Fig. 9: scaling of containment (a), aggregation (b) and join (c)
//! queries with the number of CPU cores, for both FAT and PAT modes —
//! plus (d) the parallel speculative-lex scan, old byte loop vs the
//! vectorised scanner, across thread counts.

use atgis::executor::run_blocks_on;
use atgis::pool::{JobFault, WorkerPool};
use atgis::{Engine, Query};
use atgis_bench::{RunExt, Workload};
use atgis_formats::geojson::lexer;
use atgis_formats::{fixed_blocks, Mode};
use atgis_geometry::Mbr;
use atgis_transducer::Mergeable;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Block-parallel speculative lexing (the FAT pipeline's stage 1) at
/// each thread count, with the seed byte loop and the vectorised
/// scanner — MB/s shows how far each is from the memory bus.
fn bench_scan_scaling(c: &mut Criterion) {
    let w = Workload::build(atgis_bench::scaled(3000));
    let input = w.osm_g.bytes();
    let mut group = c.benchmark_group("fig09d_scan_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(input.len() as u64));
    for t in thread_counts() {
        let blocks = fixed_blocks(input.len(), t * 4);
        for (name, bulk) in [("bytewise", false), ("vectorised", true)] {
            group.bench_with_input(BenchmarkId::new(name, t), &t, |b, &t| {
                b.iter(|| {
                    let (merged, ..) = run_blocks_on(
                        WorkerPool::global(),
                        &blocks,
                        t,
                        None,
                        |blk| {
                            let bytes = blk.slice(input);
                            let frag = if bulk {
                                lexer::lex_block(bytes, blk.start as u64)
                            } else {
                                lexer::lex_block_bytewise(bytes, blk.start as u64)
                            };
                            Ok::<_, JobFault>(frag)
                        },
                        |a, b| Ok(a.merge(b)),
                    );
                    merged.unwrap().map(|f| f.distinct_finishing_states())
                })
            });
        }
    }
    group.finish();
}

fn engine(threads: usize, mode: Mode) -> Engine {
    Engine::builder()
        .threads(threads)
        .mode(mode)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .build()
}

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    [1usize, 2, 4]
        .into_iter()
        .filter(|&t| t <= max.max(2))
        .collect()
}

fn bench_scaling(c: &mut Criterion) {
    let w = Workload::build(atgis_bench::scaled(3000));
    let region = w.region();
    let threshold = (w.objects / 2) as u64;

    let mut group = c.benchmark_group("fig09a_containment");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(w.osm_g.len() as u64));
    for t in thread_counts() {
        for (mode, name) in [(Mode::Pat, "PAT"), (Mode::Fat, "FAT")] {
            let e = engine(t, mode);
            group.bench_with_input(BenchmarkId::new(name, t), &t, |b, _| {
                b.iter(|| e.exec1(&Query::containment(region), &w.osm_g).unwrap())
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("fig09b_aggregation");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(w.osm_g.len() as u64));
    for t in thread_counts() {
        for (mode, name) in [(Mode::Pat, "PAT"), (Mode::Fat, "FAT")] {
            let e = engine(t, mode);
            group.bench_with_input(BenchmarkId::new(name, t), &t, |b, _| {
                b.iter(|| e.exec1(&Query::aggregation(region), &w.osm_g).unwrap())
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("fig09c_join");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(w.osm_g.len() as u64));
    for t in thread_counts() {
        let e = engine(t, Mode::Pat);
        group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, _| {
            b.iter(|| e.exec1(&Query::join(threshold), &w.osm_g).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scan_scaling, bench_scaling);
criterion_main!(benches);
