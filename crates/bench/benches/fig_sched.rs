//! Scheduler throughput: a duplicate-heavy 16-query mixed batch
//! through the `QueryScheduler` (predicate dedup + admission) vs the
//! unscheduled shared-scan `QuerySession::run` (the multi-tenant serving
//! extension — not a paper figure; the `fig_sched` experiment).
//!
//! Both groups report aggregate throughput over the same served
//! workload (16 queries × dataset bytes), so the MB/s ratio between
//! them IS the scheduling speedup. The comparison is deliberately
//! symmetric: **both** sides run over a warm [`QuerySession`]-style
//! partition-index cache (the unscheduled side is a warmed session,
//! the scheduled side a scheduler with its aggregate cache disabled),
//! so the ratio isolates what *scheduling* adds — predicate dedup and
//! admission — and does not re-credit PR 3's index caching. The
//! acceptance bar is ≥1.5× for the duplicate-heavy batch: the win
//! comes from dedup collapsing the four-way duplicated
//! join/combined/aggregation predicates to one execution each (the
//! scan was already shared — what dedup removes is the per-duplicate
//! sink and join-pipeline work). A third group measures the steady
//! state with the cross-batch aggregate cache on: repeated
//! single-pass traffic skips execution entirely.

use atgis::{Dataset, Engine, Query, QueryResult, QueryScheduler, QuerySession};
use atgis_bench::{RunExt, SchedRunExt, SessionRunExt};
use atgis_datagen::{write_geojson, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// The duplicate-heavy 16-query batch: concurrent tenants asking for
/// the same dashboards — four submitters each for the join, the
/// combined query and the hot aggregation tile, two for a containment
/// tile, plus two distinct one-off regions. 16 submissions, 6 unique
/// predicates.
fn duplicate_heavy_batch(n: u64) -> Vec<Query> {
    let hot_tile = Mbr::new(-6.0, 44.0, 4.0, 56.0);
    let warm_tile = Mbr::new(-2.0, 48.0, 2.0, 52.0);
    let mut batch = Vec::new();
    for _ in 0..4 {
        batch.push(Query::join(n / 8));
    }
    for _ in 0..4 {
        batch.push(Query::combined(n / 8, 10.0, 1.0e7));
    }
    for _ in 0..4 {
        batch.push(Query::aggregation(hot_tile));
    }
    for _ in 0..2 {
        batch.push(Query::containment(warm_tile));
    }
    batch.push(Query::containment(Mbr::new(-8.0, 44.0, -4.0, 48.0)));
    batch.push(Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)));
    batch
}

fn bench_sched(c: &mut Criterion) {
    let n = atgis_bench::scaled(6000);
    let ds = Dataset::from_bytes(
        write_geojson(&OsmGenerator::new(2027).generate(n)),
        Format::GeoJson,
    );
    let queries = duplicate_heavy_batch(n as u64);
    let engine = Engine::builder()
        .threads(0)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0)
        .build();

    // Correctness smoke, printed once so the bench output records
    // what scheduling actually did: scheduled results must be
    // bit-identical to the unscheduled batch (itself proven identical
    // to per-query execution by the differential suite).
    let session = QuerySession::new(engine.clone(), ds.clone());
    let (unscheduled, ustats) = session.execb_timed(&queries).unwrap(); // warms the index
    let sequential: Vec<QueryResult> = queries
        .iter()
        .map(|q| engine.exec1(q, &ds).unwrap())
        .collect();
    assert_eq!(unscheduled, sequential, "batch must equal sequential");
    // Cache-less scheduler for the headline comparison: capacity 0
    // disables the aggregate cache so every iteration measures real scheduling
    // work, not a cache hit (the warm-cache steady state is its own
    // group below).
    let scheduler = QueryScheduler::with_cache_capacity(engine.clone(), 0);
    let id = scheduler.register(ds.clone());
    let (scheduled, sstats) = scheduler.execb_timed(id, &queries).unwrap();
    assert_eq!(scheduled, unscheduled, "scheduling must not change results");
    println!(
        "fig_sched: {} submissions -> {} unique ({} dedup hits), {} wave(s), \
         {} scan pass(es), amortisation {:.1}x",
        sstats.queries,
        sstats.unique_queries,
        sstats.dedup_hits,
        sstats.waves.len(),
        sstats.scan_passes,
        sstats.amortisation_ratio(),
    );
    println!(
        "fig_sched: unscheduled batch: {} queries / {} pass(es), shared scan {:.1?}",
        ustats.queries,
        ustats.scan_passes,
        ustats.shared_scan.total(),
    );
    println!(
        "fig_sched: latency p50 {:.1?} / p95 {:.1?} / p100 {:.1?}",
        sstats.latency_percentile(50.0),
        sstats.latency_percentile(95.0),
        sstats.latency_percentile(100.0),
    );

    let served_bytes = (ds.len() * queries.len()) as u64;
    let mut group = c.benchmark_group("fig_sched_dup16");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(served_bytes));
    // Symmetric footing: both sides serve from a warm partition
    // index; the delta is dedup + admission alone.
    group.bench_with_input(BenchmarkId::new("unscheduled", n), &ds, |b, _| {
        b.iter(|| session.execb(&queries).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("scheduled", n), &ds, |b, _| {
        b.iter(|| scheduler.execb(id, &queries).unwrap())
    });
    group.finish();

    // Steady state: the full scheduler (cache on) after one warming
    // batch — repeated single-pass predicates come from the aggregate
    // cache, repeated joins from the session's partition index.
    let warm_sched = QueryScheduler::new(engine.clone());
    let warm_id = warm_sched.register(ds.clone());
    warm_sched.execb(warm_id, &queries).unwrap();
    let (_, wstats) = warm_sched.execb_timed(warm_id, &queries).unwrap();
    println!(
        "fig_sched: warm scheduler: {} cache hits + {} dedup hits of {} submissions, \
         {} scan pass(es)",
        wstats.cache_hits, wstats.dedup_hits, wstats.queries, wstats.scan_passes,
    );
    assert_eq!(wstats.scan_passes, 0, "warm steady state re-parses nothing");
    let mut group = c.benchmark_group("fig_sched_warm");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(served_bytes));
    group.bench_with_input(BenchmarkId::new("scheduled_warm", n), &ds, |b, _| {
        b.iter(|| warm_sched.execb(warm_id, &queries).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
