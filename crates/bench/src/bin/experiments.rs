//! The AT-GIS evaluation harness: regenerates every table and figure
//! of the paper's §5 as text tables.
//!
//! ```text
//! experiments [all|table1|table2|table3|fig9|fig10|fig11|fig12|fig13|
//!              fig14|fig15|fig_batch|fig_sched|fig_stream]
//! ```
//!
//! Scale with `ATGIS_SCALE` (default 1.0). Absolute numbers differ
//! from the paper (different hardware, generated data); the *shapes* —
//! who wins, crossover points, scaling knees — are the reproduction
//! targets recorded in EXPERIMENTS.md.

use atgis::{Dataset, Engine, ExecOptions, FilterStrategy, Metric, Query, QueryResult};
use atgis_baselines::{column_scan, indexed, sequential, BaselineQuery};
use atgis_bench::cluster_sim;
use atgis_bench::{
    scaled, synth_dataset, throughput_mbs, time_best_of, time_once, RunExt, SchedRunExt,
    SessionRunExt, StreamRunExt, Workload,
};
use atgis_datagen::SynthConfig;
use atgis_formats::{Format, Mode};
use atgis_geometry::{DistanceModel, Mbr};
use std::time::Duration;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let run_all = which == "all";
    println!(
        "AT-GIS evaluation harness (scale = {})",
        atgis_bench::scale()
    );
    println!("host threads available: {}", host_threads());
    println!(
        "dataset backing: {}",
        if atgis_bench::mmap_enabled() {
            "memory-mapped temp files (ATGIS_MMAP=1)"
        } else {
            "heap buffers (set ATGIS_MMAP=1 to mmap)"
        }
    );
    println!();
    if run_all || which == "table1" {
        table1();
    }
    if run_all || which == "table2" {
        table2();
    }
    if run_all || which == "table3" {
        table3();
    }
    if run_all || which == "fig9" {
        fig9();
    }
    if run_all || which == "fig10" {
        fig10();
    }
    if run_all || which == "fig11" {
        fig11();
    }
    if run_all || which == "fig12" {
        fig12();
    }
    if run_all || which == "fig13" {
        fig13();
    }
    if run_all || which == "fig14" {
        fig14();
    }
    if run_all || which == "fig15" {
        fig15();
    }
    if run_all || which == "fig_batch" {
        fig_batch();
    }
    if run_all || which == "fig_sched" {
        fig_sched();
    }
    if run_all || which == "fig_stream" {
        fig_stream();
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn thread_sweep() -> Vec<usize> {
    // Sweep past the physical count to show the saturation knee even
    // on small hosts (the paper sweeps 1..64 on a 64-core box).
    let max = host_threads();
    let mut v: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&t| t <= max.max(4))
        .collect();
    if !v.contains(&max) && max > 1 {
        v.push(max);
        v.sort_unstable();
    }
    v
}

fn engine(threads: usize, mode: Mode) -> Engine {
    Engine::builder()
        .threads(threads)
        .mode(mode)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0)
        .build()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------- tables

fn table1() {
    use atgis::operators::SpatialOperator;
    println!("=== Table 1: spatial operators as associative transducers ===");
    println!("{:<18} {:>10} {:>16}", "operator", "class", "associativity");
    for op in SpatialOperator::ALL {
        println!(
            "{:<18} {:>10} {:>16}",
            op.name(),
            format!("{:?}", op.transducer_class()),
            format!("{:?}", op.associativity()),
        );
    }
    println!();
}

fn table2() {
    println!("=== Table 2: datasets ===");
    let w = Workload::build(scaled(5000));
    let synth = synth_dataset(scaled(1000), 1.0);
    println!(
        "{:<10} {:<28} {:>12} {:>10}",
        "name", "description", "size (KB)", "objects"
    );
    let row = |name: &str, desc: &str, ds: &Dataset, objects: usize| {
        println!(
            "{:<10} {:<28} {:>12} {:>10}",
            name,
            desc,
            ds.len() / 1024,
            objects
        );
    };
    row("OSM-X", "OSM-like XML", &w.osm_x, w.objects);
    row("OSM-G", "OSM-like GeoJSON", &w.osm_g, w.objects);
    row("OSM-W", "OSM-like WKT", &w.osm_w, w.objects);
    row("OSM-4R", "replicated 4x", &w.osm_rep, w.objects * 4);
    row("Synth", "log-normal sigma=1", &synth, scaled(1000));
    println!();
}

fn table3() {
    println!("=== Table 3: queries (executed against OSM-G) ===");
    let w = Workload::build(scaled(2000));
    let e = engine(host_threads(), Mode::Pat);
    let region = w.region();
    let threshold = (w.objects / 2) as u64;

    let (r, d) = time_once(|| e.exec1(&Query::containment(region), &w.osm_g).unwrap());
    println!(
        "containment: {} matches in {:.3}s",
        r.matches().len(),
        secs(d)
    );
    let (r, d) = time_once(|| e.exec1(&Query::aggregation(region), &w.osm_g).unwrap());
    let a = r.aggregate().unwrap();
    println!(
        "aggregation: count={} area={:.3e} m^2 perimeter={:.3e} m in {:.3}s",
        a.count,
        a.total_area,
        a.total_perimeter,
        secs(d)
    );
    let (r, d) = time_once(|| e.exec1(&Query::join(threshold), &w.osm_g).unwrap());
    println!("join:        {} pairs in {:.3}s", r.joined().len(), secs(d));
    let (r, d) = time_once(|| {
        e.exec1(&Query::combined(threshold, 10.0, 1.0e7), &w.osm_g)
            .unwrap()
    });
    if let QueryResult::Combined {
        pairs,
        total_union_area,
    } = r
    {
        println!(
            "combined:    {pairs} pairs, union area {total_union_area:.3e} m^2 in {:.3}s",
            secs(d)
        );
    }
    println!();
}

// --------------------------------------------------------------- figures

fn fig9() {
    println!("=== Fig 9: scaling with CPU cores (throughput MB/s) ===");
    let w = Workload::build(scaled(20000));
    let region = w.region();
    let threshold = (w.objects / 2) as u64;
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "threads", "cont-PAT", "cont-FAT", "agg-PAT", "agg-FAT", "join"
    );
    for t in thread_sweep() {
        let pat = engine(t, Mode::Pat);
        let fat = engine(t, Mode::Fat);
        let (_, d_cp) = time_best_of(2, || pat.exec1(&Query::containment(region), &w.osm_g));
        let (_, d_cf) = time_best_of(2, || fat.exec1(&Query::containment(region), &w.osm_g));
        let (_, d_ap) = time_best_of(2, || pat.exec1(&Query::aggregation(region), &w.osm_g));
        let (_, d_af) = time_best_of(2, || fat.exec1(&Query::aggregation(region), &w.osm_g));
        let (_, d_j) = time_once(|| pat.exec1(&Query::join(threshold), &w.osm_g));
        println!(
            "{:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10.1}",
            t,
            throughput_mbs(w.osm_g.len(), d_cp),
            throughput_mbs(w.osm_g.len(), d_cf),
            throughput_mbs(w.osm_g.len(), d_ap),
            throughput_mbs(w.osm_g.len(), d_af),
            throughput_mbs(w.osm_g.len(), d_j),
        );
    }
    println!();
}

fn fig10() {
    println!("=== Fig 10: query execution time across systems (seconds) ===");
    let w = Workload::build(scaled(5000));
    let region = w.region();
    let threshold = (w.objects / 2) as u64;
    let threads = host_threads();

    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>14}",
        "system", "containment", "aggregation", "join", "load+index"
    );

    // AT-GIS PAT and FAT: zero load phase.
    for (name, mode) in [("AT-GIS-PAT", Mode::Pat), ("AT-GIS-FAT", Mode::Fat)] {
        let e = engine(threads, mode);
        let (_, dc) = time_best_of(2, || e.exec1(&Query::containment(region), &w.osm_g));
        let (_, da) = time_best_of(2, || e.exec1(&Query::aggregation(region), &w.osm_g));
        let (_, dj) = time_once(|| e.exec1(&Query::join(threshold), &w.osm_g));
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14}",
            name,
            secs(dc),
            secs(da),
            secs(dj),
            "0 (raw data)"
        );
    }

    // Sequential scan.
    {
        let qc = BaselineQuery::containment(region);
        let qa = BaselineQuery::aggregation(region);
        let (_, dc) = time_once(|| sequential::execute(w.osm_g.bytes(), Format::GeoJson, &qc));
        let (_, da) = time_once(|| sequential::execute(w.osm_g.bytes(), Format::GeoJson, &qa));
        let (_, dj) = time_once(|| {
            sequential::execute(
                w.osm_g.bytes(),
                Format::GeoJson,
                &BaselineQuery::Join(threshold),
            )
        });
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14}",
            "Sequential",
            secs(dc),
            secs(da),
            secs(dj),
            "0"
        );
    }

    // Indexed RDBMS (PostGIS / DBMS-X stand-in).
    {
        let mut store = indexed::IndexedStore::load(w.osm_g.bytes(), Format::GeoJson).unwrap();
        store.build_index();
        let (_, dc) = time_best_of(2, || store.execute(&BaselineQuery::containment(region)));
        let (_, da) = time_best_of(2, || store.execute(&BaselineQuery::aggregation(region)));
        let (_, dj) = time_once(|| store.execute(&BaselineQuery::Join(threshold)));
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
            "Indexed(DBMS)",
            secs(dc),
            secs(da),
            secs(dj),
            secs(store.data_to_query_overhead()),
        );
    }

    // Column scan (MonetDB stand-in), -B and -G.
    {
        let store = column_scan::ColumnStore::load(w.osm_g.bytes(), Format::GeoJson).unwrap();
        for (name, refine) in [
            ("ColumnScan-B", column_scan::Refinement::BoxOnly),
            ("ColumnScan-G", column_scan::Refinement::FullGeometry),
        ] {
            let (_, dc) = time_best_of(2, || {
                store.execute(&BaselineQuery::containment(region), refine, threads)
            });
            let (_, da) = time_best_of(2, || {
                store.execute(&BaselineQuery::aggregation(region), refine, threads)
            });
            let (_, dj) =
                time_once(|| store.execute(&BaselineQuery::Join(threshold), refine, threads));
            println!(
                "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
                name,
                secs(dc),
                secs(da),
                secs(dj),
                secs(store.load_time),
            );
        }
    }

    // Cluster simulator (Hadoop-GIS-like).
    {
        let config = cluster_sim::ClusterConfig::default();
        let run = |q: &BaselineQuery| {
            let (r, d) =
                time_once(|| cluster_sim::execute(w.osm_g.bytes(), Format::GeoJson, q, &config));
            d + r.unwrap().simulated_overhead
        };
        let dc = run(&BaselineQuery::containment(region));
        let da = run(&BaselineQuery::aggregation(region));
        let dj = run(&BaselineQuery::Join(threshold));
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14}",
            "ClusterSim(8n)",
            secs(dc),
            secs(da),
            secs(dj),
            "partitioned"
        );
    }
    println!();
}

fn fig11() {
    println!("=== Fig 11: partition vs join time scaling (seconds) ===");
    let w = Workload::build(scaled(10000));
    let threshold = (w.objects / 2) as u64;
    println!(
        "{:>7} {:>12} {:>12} {:>12}",
        "threads", "partition", "join", "total"
    );
    for t in thread_sweep() {
        let e = engine(t, Mode::Pat);
        let (stats, _) = time_once(|| {
            e.run(
                &[Query::join(threshold)],
                &w.osm_g,
                &ExecOptions::new().timed(),
            )
            .unwrap()
            .batch
            .expect("timed run reports batch stats")
        });
        let j = stats.per_query[0].join.expect("join stats");
        println!(
            "{:>7} {:>12.3} {:>12.3} {:>12.3}",
            t,
            secs(j.partition.total()),
            secs(j.join.total() + j.dedup),
            secs(j.total()),
        );
    }
    println!();
}

fn fig12() {
    println!("=== Fig 12: throughput by data format (MB/s) ===");
    let w = Workload::build(scaled(10000));
    let region = w.region();
    let threads = host_threads();
    let e = engine(threads, Mode::Pat);
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "containment", "aggregation", "join", "combined"
    );
    for (name, ds) in [
        ("OSM-G", &w.osm_g),
        ("OSM-W", &w.osm_w),
        ("OSM-X", &w.osm_x),
        ("OSM-4R", &w.osm_rep),
    ] {
        let objects = if name == "OSM-4R" {
            w.objects * 4
        } else {
            w.objects
        };
        let threshold = (objects / 2) as u64;
        let (_, dc) = time_best_of(2, || e.exec1(&Query::containment(region), ds));
        let (_, da) = time_best_of(2, || e.exec1(&Query::aggregation(region), ds));
        let (_, dj) = time_once(|| e.exec1(&Query::join(threshold), ds));
        let (_, dk) = time_once(|| e.exec1(&Query::combined(threshold, 10.0, 1.0e7), ds));
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1} {:>10.1}",
            name,
            throughput_mbs(ds.len(), dc),
            throughput_mbs(ds.len(), da),
            throughput_mbs(ds.len(), dj),
            throughput_mbs(ds.len(), dk),
        );
    }
    println!();
}

fn fig13() {
    println!("=== Fig 13: streaming vs buffered filtering (MB/s) ===");
    let w = Workload::build(scaled(10000));
    let threads = host_threads();
    // Regions selecting decreasing fractions of the data extent.
    let world = Mbr::new(-11.0, 39.0, 11.0, 61.0);
    let fractions: [f64; 6] = [1.0, 0.3, 0.1, 0.03, 0.01, 0.001];
    for (model, label) in [
        (DistanceModel::Spherical, "(a) spherical projection"),
        (DistanceModel::Andoyer, "(b) Andoyer's algorithm"),
    ] {
        println!("--- {label} ---");
        println!("{:>10} {:>12} {:>12}", "area sel%", "streaming", "buffered");
        for frac in fractions {
            let width = world.width() * frac.sqrt();
            let height = world.height() * frac.sqrt();
            let cx = -5.0; // Centre on a cluster-dense area.
            let cy = 50.0;
            let region = Mbr::new(
                cx - width / 2.0,
                cy - height / 2.0,
                cx + width / 2.0,
                cy + height / 2.0,
            );
            let run = |strategy| {
                let q = Query::aggregation_with(
                    region,
                    vec![Metric::Area, Metric::Perimeter, Metric::Count],
                    model,
                    strategy,
                );
                let e = engine(threads, Mode::Pat);
                let (_, d) = time_best_of(2, || e.exec1(&q, &w.osm_g).unwrap());
                throughput_mbs(w.osm_g.len(), d)
            };
            println!(
                "{:>10.2} {:>12.1} {:>12.1}",
                frac * 100.0,
                run(FilterStrategy::Streaming),
                run(FilterStrategy::Buffered),
            );
        }
    }
    println!();
}

fn fig14() {
    println!("=== Fig 14: dataset skew, FAT vs PAT (MB/s) ===");
    let threads = host_threads();
    let total_points = scaled(200_000);

    println!("--- (a) object count (fixed total size) ---");
    println!("{:>10} {:>12} {:>12}", "objects", "FAT", "PAT");
    for n in [10usize, 100, 1000, 10_000] {
        let n = n.min(total_points / 4);
        let mu = ((total_points as f64 / n as f64).max(4.0)).ln();
        let ds = SynthConfig {
            objects: n,
            sigma: 0.3,
            mu,
            seed: 4,
            multipolygon_fraction: 0.0,
        }
        .generate();
        let data = Dataset::from_bytes(atgis_datagen::write_geojson(&ds), Format::GeoJson);
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let (_, d_fat) = time_once(|| engine(threads, Mode::Fat).exec1(&q, &data).unwrap());
        let (_, d_pat) = time_once(|| engine(threads, Mode::Pat).exec1(&q, &data).unwrap());
        println!(
            "{:>10} {:>12.1} {:>12.1}",
            n,
            throughput_mbs(data.len(), d_fat),
            throughput_mbs(data.len(), d_pat),
        );
    }

    println!("--- (b) skew sigma (log-normal edge counts) ---");
    println!("{:>10} {:>12} {:>12}", "sigma", "FAT", "PAT");
    for sigma in [1.0, 2.0, 3.0, 4.0, 5.0] {
        let ds = SynthConfig {
            objects: scaled(300),
            sigma,
            mu: 2.0,
            seed: 5,
            multipolygon_fraction: 0.0,
        }
        .generate();
        let data = Dataset::from_bytes(atgis_datagen::write_geojson(&ds), Format::GeoJson);
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let (_, d_fat) = time_once(|| engine(threads, Mode::Fat).exec1(&q, &data).unwrap());
        let (_, d_pat) = time_once(|| engine(threads, Mode::Pat).exec1(&q, &data).unwrap());
        println!(
            "{:>10.1} {:>12.1} {:>12.1}",
            sigma,
            throughput_mbs(data.len(), d_fat),
            throughput_mbs(data.len(), d_pat),
        );
    }
    println!();
}

fn fig15() {
    println!("=== Fig 15: partition size (seconds) ===");
    let w = Workload::build(scaled(10000));
    let threshold = (w.objects / 2) as u64;
    let threads = host_threads();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "cell(deg)", "part-P", "part-M", "join", "total"
    );
    for cell in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let e = Engine::builder()
            .threads(threads)
            .mode(Mode::Pat)
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(cell)
            .build();
        let out = e
            .run(
                &[Query::join(threshold)],
                &w.osm_g,
                &ExecOptions::new().timed(),
            )
            .unwrap();
        let stats = out.batch.expect("timed run reports batch stats");
        let j = stats.per_query[0].join.expect("join stats");
        println!(
            "{:>10.2} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            cell,
            secs(j.partition.split + j.partition.process),
            secs(j.partition.merge),
            secs(j.join.total() + j.dedup),
            secs(j.total()),
        );
    }
    println!();
}

fn fig_batch() {
    println!("=== fig_batch: shared-scan batch execution (8 mixed queries) ===");
    let w = Workload::build(scaled(6000));
    let threshold = (w.objects / 8) as u64;
    let threads = host_threads();
    let e = engine(threads, Mode::Pat);
    let queries = vec![
        Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
        Query::containment(Mbr::new(-8.0, 44.0, -4.0, 48.0)),
        Query::aggregation(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
        Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)),
        Query::containment(Mbr::new(3.0, 42.0, 7.0, 46.0)),
        Query::aggregation(Mbr::new(-6.0, 44.0, -2.0, 48.0)),
        Query::join(threshold),
        Query::combined(threshold, 10.0, 1.0e7),
    ];
    let served = w.osm_g.len() * queries.len();

    let (seq_results, d_seq) = time_best_of(3, || {
        queries
            .iter()
            .map(|q| e.exec1(q, &w.osm_g).unwrap())
            .collect::<Vec<_>>()
    });
    let ((batch_results, stats), d_batch) =
        time_best_of(3, || e.execb_timed(&queries, &w.osm_g).unwrap());
    assert_eq!(batch_results, seq_results, "batch must equal sequential");

    println!(
        "{:>14} {:>12} {:>12} {:>12}",
        "mode", "time (s)", "agg MB/s", "passes"
    );
    println!(
        "{:>14} {:>12.3} {:>12.1} {:>12}",
        "sequential",
        secs(d_seq),
        throughput_mbs(served, d_seq),
        queries.len(),
    );
    println!(
        "{:>14} {:>12.3} {:>12.1} {:>12}",
        "shared scan",
        secs(d_batch),
        throughput_mbs(served, d_batch),
        stats.scan_passes,
    );
    println!(
        "batch speedup: {:.2}x  amortisation: {:.1} queries/pass  shared scan: {:.3}s",
        secs(d_seq) / secs(d_batch),
        stats.amortisation_ratio(),
        secs(stats.shared_scan.total()),
    );
    for (i, q) in stats.per_query.iter().enumerate() {
        let join = q
            .join
            .map(|j| {
                format!(
                    " join={:.3}s dedup={:.3}s",
                    secs(j.join.process),
                    secs(j.dedup)
                )
            })
            .unwrap_or_default();
        println!(
            "  q{i}: wall={:.3}s scan={:.3}s finalize={:.3}s{join}",
            secs(q.wall),
            secs(q.scan),
            secs(q.finalize),
        );
    }

    // Steady-state serving: a QuerySession with a warm index cache.
    let session = atgis::QuerySession::new(e, w.osm_g.clone());
    session.execb(&queries).unwrap();
    let (_, d_warm) = time_best_of(3, || session.execb(&queries).unwrap());
    let joins = vec![Query::join(threshold), Query::join(threshold / 2)];
    let ((_, warm_stats), d_joins) = time_best_of(3, || session.execb_timed(&joins).unwrap());
    println!(
        "warm session: mixed batch {:.3}s ({:.1} MB/s); join-only batch {:.3}s at {} parse passes",
        secs(d_warm),
        throughput_mbs(served, d_warm),
        secs(d_joins),
        warm_stats.scan_passes,
    );
    println!();
}

fn fig_sched() {
    use atgis::{QueryScheduler, SchedulerConfig};
    println!("=== fig_sched: scheduled vs unscheduled duplicate-heavy batch (16 queries) ===");
    let w = Workload::build(scaled(6000));
    let threshold = (w.objects / 8) as u64;
    let e = engine(host_threads(), Mode::Pat);
    // 16 submissions, 6 unique predicates: 4× join, 4× combined,
    // 4× one aggregation tile, 2× one containment tile, 2 one-offs.
    let mut queries = Vec::new();
    queries.extend((0..4).map(|_| Query::join(threshold)));
    queries.extend((0..4).map(|_| Query::combined(threshold, 10.0, 1.0e7)));
    queries.extend((0..4).map(|_| Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0))));
    queries.extend((0..2).map(|_| Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0))));
    queries.push(Query::containment(Mbr::new(-8.0, 44.0, -4.0, 48.0)));
    queries.push(Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)));
    let served = w.osm_g.len() * queries.len();

    // Symmetric footing: the unscheduled side is a warm QuerySession
    // (partition index cached, same as the scheduler's session), so
    // the ratio isolates dedup + admission, not PR 3's index caching.
    let plain = atgis::QuerySession::new(e.clone(), w.osm_g.clone());
    plain.execb(&queries).unwrap(); // warm the index
    let (unscheduled, d_plain) = time_best_of(3, || plain.execb(&queries).unwrap());
    let sched = QueryScheduler::with_config(
        e.clone(),
        SchedulerConfig {
            cache: false, // measure scheduling work, not cache hits
            ..SchedulerConfig::default()
        },
    );
    let id = sched.register(w.osm_g.clone());
    sched.execb(id, &queries).unwrap(); // warm its index too
    let ((scheduled, stats), d_sched) =
        time_best_of(3, || sched.execb_timed(id, &queries).unwrap());
    assert_eq!(scheduled, unscheduled, "scheduling must not change results");

    println!(
        "{:>14} {:>12} {:>12} {:>8} {:>8}",
        "mode", "time (s)", "agg MB/s", "executed", "passes"
    );
    println!(
        "{:>14} {:>12.3} {:>12.1} {:>8} {:>8}",
        "unscheduled",
        secs(d_plain),
        throughput_mbs(served, d_plain),
        queries.len(),
        1,
    );
    println!(
        "{:>14} {:>12.3} {:>12.1} {:>8} {:>8}",
        "scheduled",
        secs(d_sched),
        throughput_mbs(served, d_sched),
        stats.unique_queries,
        stats.scan_passes,
    );
    println!(
        "scheduling speedup: {:.2}x  dedup {} of {}  waves {}  latency p50/p95/max \
         {:.3}s/{:.3}s/{:.3}s",
        secs(d_plain) / secs(d_sched),
        stats.dedup_hits,
        stats.queries,
        stats.waves.len(),
        secs(stats.latency_percentile(50.0)),
        secs(stats.latency_percentile(95.0)),
        secs(stats.latency_percentile(100.0)),
    );

    // Steady state: full policies, warm aggregate cache + warm index.
    let warm = QueryScheduler::new(e);
    let wid = warm.register(w.osm_g.clone());
    warm.execb(wid, &queries).unwrap();
    let ((_, wstats), d_warm) = time_best_of(3, || warm.execb_timed(wid, &queries).unwrap());
    println!(
        "warm scheduler: {:.3}s ({:.1} MB/s) — {} cache hits, {} parse passes",
        secs(d_warm),
        throughput_mbs(served, d_warm),
        wstats.cache_hits,
        wstats.scan_passes,
    );
    println!();
}

fn fig_stream() {
    use atgis::{FileChunkSource, QueryResult};
    println!("=== fig_stream: streamed vs full-buffer execution (MB/s) ===");
    let w = Workload::build(scaled(10000));
    let bytes = w.osm_g.bytes().to_vec();
    let path = std::env::temp_dir().join(format!(
        "atgis_fig_stream_exp_{}.geojson",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).expect("spill workload to disk");
    let threads = host_threads();
    let e = engine(threads, Mode::Pat);
    let region = w.region();
    let threshold = (w.objects / 2) as u64;
    let queries = [
        Query::containment(region),
        Query::aggregation(region),
        Query::join(threshold),
    ];

    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>10} {:>10} {:>11}",
        "mode", "chunk", "containment", "aggregation", "join", "peak-frag", "VmHWM(MB)"
    );

    // Streamed first: VmHWM is a high-water mark, so measure the
    // streamed profile before the buffered run can spike it. The
    // summary ratio reports the best streamed configuration (chunk
    // size is an operator knob; the figure shows all of them).
    let mut streamed_agg = f64::NAN;
    let mut streamed_agg_label = "-";
    for (label, chunk) in [
        ("64KiB", 1usize << 16),
        ("1MiB", 1 << 20),
        ("16MiB", 1 << 24),
    ] {
        let mut mbs = [0.0f64; 3];
        let mut peak_frag = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let ((_, _, sstats), d) = time_best_of(2, || {
                let mut src = FileChunkSource::open_with_chunk_len(&path, chunk).unwrap();
                e.streamb_timed(std::slice::from_ref(q), &mut src, Format::GeoJson)
                    .unwrap()
            });
            mbs[i] = throughput_mbs(bytes.len(), d);
            peak_frag = peak_frag.max(sstats.peak_fragments);
        }
        if streamed_agg.is_nan() || mbs[1] > streamed_agg {
            streamed_agg = mbs[1];
            streamed_agg_label = label;
        }
        println!(
            "{:>10} {:>10} {:>12.1} {:>12.1} {:>10.1} {:>10} {:>11}",
            "streamed",
            label,
            mbs[0],
            mbs[1],
            mbs[2],
            peak_frag,
            atgis_bench::peak_rss_kb()
                .map(|kb| format!("{:.0}", kb as f64 / 1024.0))
                .unwrap_or_else(|| "-".into()),
        );
    }

    // Full-buffer reference: read the file, then scan.
    let mut buf_mbs = [0.0f64; 3];
    let mut reference: Vec<QueryResult> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (r, d) = time_best_of(2, || {
            let ds = Dataset::from_file(&path, Format::GeoJson).unwrap();
            e.exec1(q, &ds).unwrap()
        });
        buf_mbs[i] = throughput_mbs(bytes.len(), d);
        reference.push(r);
    }
    println!(
        "{:>10} {:>10} {:>12.1} {:>12.1} {:>10.1} {:>10} {:>11}",
        "buffered",
        "-",
        buf_mbs[0],
        buf_mbs[1],
        buf_mbs[2],
        "-",
        atgis_bench::peak_rss_kb()
            .map(|kb| format!("{:.0}", kb as f64 / 1024.0))
            .unwrap_or_else(|| "-".into()),
    );
    println!(
        "streamed/buffered aggregation ratio: {:.2} (best streamed config: {streamed_agg_label} chunks)",
        streamed_agg / buf_mbs[1]
    );

    // Equality spot-check at the reporting scale.
    for (q, want) in queries.iter().zip(&reference) {
        let mut src = FileChunkSource::open_with_chunk_len(&path, 1 << 20).unwrap();
        let got = e.stream1(q, &mut src, Format::GeoJson).unwrap();
        assert_eq!(&got, want, "streamed must equal buffered");
    }
    std::fs::remove_file(&path).ok();
    println!();
}
