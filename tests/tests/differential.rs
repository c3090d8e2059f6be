//! Differential-testing harness: every engine query shape runs against
//! the `atgis-baselines::sequential` oracle (one thread, one parse
//! pass, nested-loop join) on synthetic datasets, and the results must
//! be identical across every engine configuration — thread counts,
//! uniform vs skew-adaptive partitioning, FAT vs PAT GeoJSON parsing,
//! on inputs that reach both MBR COMPARE arms — plus the `ByteDfa` bulk scanner against its
//! byte-at-a-time reference. Set `ATGIS_MMAP=1` to run the same suite
//! over memory-mapped datasets instead of heap buffers, covering both
//! `Dataset` storage paths.

use atgis::stream::SliceChunkSource;
use atgis::{
    Dataset, Engine, ExecOptions, FilterStrategy, Metric, Query, QueryResult, QueryScheduler,
    QuerySession, ScheduledQuery,
};
use atgis_baselines::{sequential, BaselineAnswer, BaselineQuery};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::{DistanceModel, Mbr, Point, Polygon, Ring};
use atgis_tests::{
    assert_agrees_with_oracle, modes, oracle_answers, RunExt, SchedRunExt, SessionRunExt,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread counts exercised for every engine configuration.
const THREADS: [usize; 3] = [1, 2, 8];

/// Uniform grid (target 0) vs adaptive partitioning with a target tiny
/// enough to force hot-cell splits on these small datasets.
const PARTITION_TARGETS: [usize; 2] = [0, 4];

fn mmap_enabled() -> bool {
    std::env::var("ATGIS_MMAP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Heap-backed dataset, or a temp-file memory mapping when
/// `ATGIS_MMAP=1` (the file is unlinked once the mapping is live).
fn materialize(bytes: Vec<u8>, format: Format) -> Dataset {
    if mmap_enabled() {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "atgis_differential_{}_{}.dat",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&path, &bytes).is_ok() {
            let mapped = Dataset::mmap(&path, format);
            std::fs::remove_file(&path).ok();
            if let Ok(d) = mapped {
                return d;
            }
        }
    }
    Dataset::from_bytes(bytes, format)
}

fn dataset(seed: u64, n: usize, format: Format) -> Dataset {
    dataset_with(OsmGenerator::new(seed), n, format)
}

fn dataset_with(gen: OsmGenerator, n: usize, format: Format) -> Dataset {
    let ds = gen.generate(n);
    let bytes = match format {
        Format::GeoJson => write_geojson(&ds),
        Format::Wkt => write_wkt(&ds),
        Format::OsmXml => write_osm_xml(&ds),
    };
    materialize(bytes, format)
}

/// Every engine configuration the suite sweeps: thread counts ×
/// partitioning schemes (joins vary by both; single-pass queries only
/// by threads/mode).
fn engines() -> Vec<(String, Engine)> {
    let mut out = Vec::new();
    for threads in THREADS {
        for target in PARTITION_TARGETS {
            out.push((
                format!("threads={threads} target={target}"),
                Engine::builder()
                    .threads(threads)
                    .cell_size(2.0)
                    .partition_target(target)
                    .build(),
            ));
        }
    }
    out
}

fn oracle(ds: &Dataset, format: Format, q: &BaselineQuery) -> BaselineAnswer {
    sequential::execute(ds.bytes(), format, q).expect("oracle parses its own input")
}

#[test]
fn containment_matches_oracle_everywhere() {
    let region = Mbr::new(-6.0, 44.0, 4.0, 56.0);
    for format in [Format::GeoJson, Format::Wkt] {
        let ds = dataset(301, 90, format);
        let want = match oracle(&ds, format, &BaselineQuery::containment(region)) {
            BaselineAnswer::Matches(ids) => ids,
            other => panic!("{other:?}"),
        };
        assert!(!want.is_empty(), "query must select something");
        for (config, engine) in engines() {
            let r = engine.exec1(&Query::containment(region), &ds).unwrap();
            let mut got: Vec<u64> = r.matches().iter().map(|m| m.id).collect();
            got.sort_unstable();
            assert_eq!(got, want, "containment {format:?} [{config}]");
        }
    }
}

#[test]
fn count_and_aggregate_match_oracle_everywhere() {
    let region = Mbr::new(-8.0, 42.0, 6.0, 58.0);
    for format in [Format::GeoJson, Format::Wkt] {
        let ds = dataset(302, 80, format);
        let (want_count, want_area, want_perimeter) =
            match oracle(&ds, format, &BaselineQuery::aggregation(region)) {
                BaselineAnswer::Aggregate(c, a, p) => (c, a, p),
                other => panic!("{other:?}"),
            };
        assert!(want_count > 0);
        for (config, engine) in engines() {
            let agg = engine
                .exec1(&Query::aggregation(region), &ds)
                .unwrap()
                .aggregate()
                .unwrap();
            assert_eq!(agg.count, want_count, "count {format:?} [{config}]");
            // The engine merges fragments as a tree, the oracle folds
            // left-to-right: float sums may differ in the last ulps.
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            assert!(
                close(agg.total_area, want_area),
                "area {format:?} [{config}]: {} vs {want_area}",
                agg.total_area
            );
            assert!(
                close(agg.total_perimeter, want_perimeter),
                "perimeter {format:?} [{config}]: {} vs {want_perimeter}",
                agg.total_perimeter
            );
        }
    }
}

#[test]
fn join_matches_oracle_everywhere() {
    for format in [Format::GeoJson, Format::Wkt] {
        // Half the objects share one 0.03° blob so the dataset
        // actually contains intersecting cross-side pairs.
        let ds = dataset_with(OsmGenerator::new(303).with_hotspot(0.5, 0.03), 120, format);
        let threshold = 60;
        let want = match oracle(&ds, format, &BaselineQuery::Join(threshold)) {
            BaselineAnswer::Pairs(pairs) => pairs,
            other => panic!("{other:?}"),
        };
        assert!(!want.is_empty(), "join must produce pairs");
        for (config, engine) in engines() {
            let r = engine.exec1(&Query::join(threshold), &ds).unwrap();
            let mut got: Vec<(u64, u64)> =
                r.joined().iter().map(|p| (p.left_id, p.right_id)).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "join {format:?} [{config}]");
        }
    }
}

/// The per-partition cost rule's R-tree arm, end to end: a dense
/// hotspot at a fine grid makes some partitions dense enough that the
/// rule picks the R-tree, and the pairs still equal the oracle's.
#[test]
fn auto_rtree_arm_matches_oracle() {
    for seed in [311, 9, 42] {
        let ds = dataset_with(
            OsmGenerator::new(seed).with_hotspot(0.7, 0.05),
            600,
            Format::GeoJson,
        );
        let want = match oracle(&ds, Format::GeoJson, &BaselineQuery::Join(300)) {
            BaselineAnswer::Pairs(pairs) => pairs,
            other => panic!("{other:?}"),
        };
        assert!(!want.is_empty(), "seed {seed}: join must produce pairs");
        for threads in [1, 2] {
            let engine = Engine::builder().threads(threads).cell_size(0.25).build();
            let out = engine
                .run(&[Query::join(300)], &ds, &ExecOptions::new().timed())
                .unwrap();
            let d = out.batch.as_ref().unwrap().per_query[0]
                .decisions
                .expect("join decisions");
            let label = format!("seed={seed} threads={threads} {d:?}");
            assert!(d.rtree_partitions > 0, "the R-tree arm must run [{label}]");
            assert_eq!(
                d.rtree_partitions,
                d.rtree_by_asymmetry + d.rtree_by_density,
                "every R-tree pick has one reason [{label}]"
            );
            let r = out.into_single().unwrap();
            let mut got: Vec<(u64, u64)> =
                r.joined().iter().map(|p| (p.left_id, p.right_id)).collect();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "[{label}]");
        }
    }
}

#[test]
fn skewed_join_matches_oracle_everywhere() {
    // The corridor workload of the Fig. 14 experiment, small enough
    // for the nested-loop oracle: the shape that actually exercises
    // hot-cell splitting and the per-partition probe choice.
    let mut gen = OsmGenerator::new(304)
        .with_corridor(0.8, 0.001, 0.3)
        .with_object_scale(0.3);
    gen.road_fraction = 0.0;
    gen.collection_fraction = 0.0;
    let bytes = write_geojson(&gen.generate(120));
    let ds = materialize(bytes, Format::GeoJson);
    let want = match oracle(&ds, Format::GeoJson, &BaselineQuery::Join(60)) {
        BaselineAnswer::Pairs(pairs) => pairs,
        other => panic!("{other:?}"),
    };
    assert!(!want.is_empty(), "skewed join must produce pairs");
    for (config, engine) in engines() {
        let r = engine.exec1(&Query::join(60), &ds).unwrap();
        let mut got: Vec<(u64, u64)> = r.joined().iter().map(|p| (p.left_id, p.right_id)).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got, want, "skewed join [{config}]");
    }
}

#[test]
fn xml_containment_matches_oracle() {
    let region = Mbr::new(-180.0, -90.0, 180.0, 90.0);
    let ds = dataset(305, 40, Format::OsmXml);
    let want = match oracle(&ds, Format::OsmXml, &BaselineQuery::containment(region)) {
        BaselineAnswer::Matches(ids) => ids,
        other => panic!("{other:?}"),
    };
    for threads in THREADS {
        let engine = Engine::builder().threads(threads).build();
        let r = engine.exec1(&Query::containment(region), &ds).unwrap();
        let mut got: Vec<u64> = r.matches().iter().map(|m| m.id).collect();
        got.sort_unstable();
        assert_eq!(got, want, "xml containment threads={threads}");
    }
}

#[test]
fn fat_and_pat_modes_match_oracle() {
    let region = Mbr::new(-6.0, 44.0, 4.0, 56.0);
    for format in [Format::GeoJson, Format::Wkt] {
        let ds = dataset(306, 60, format);
        let want = match oracle(&ds, format, &BaselineQuery::containment(region)) {
            BaselineAnswer::Matches(ids) => ids,
            other => panic!("{other:?}"),
        };
        for &mode in modes(format) {
            let engine = Engine::builder().threads(2).mode(mode).build();
            let r = engine.exec1(&Query::containment(region), &ds).unwrap();
            let mut got: Vec<u64> = r.matches().iter().map(|m| m.id).collect();
            got.sort_unstable();
            assert_eq!(got, want, "containment {format:?} mode={mode:?}");
        }
    }
}

/// A concave L with a square hole in its foot, inside the generator's
/// extent. Every region that reaches the engine from `Query::containment`
/// or `Query::aggregation` is a rectangle; this one is not, so each
/// feature its MBR meets takes the sinks' exact edge test.
fn l_region_with_hole() -> Polygon {
    let ring =
        |points: &[(f64, f64)]| Ring::new(points.iter().map(|&(x, y)| Point::new(x, y)).collect());
    Polygon::new(
        ring(&[
            (-10.0, 39.0),
            (5.0, 39.0),
            (5.0, 45.0),
            (-3.0, 45.0),
            (-3.0, 52.0),
            (-10.0, 52.0),
        ]),
        vec![ring(&[
            (-9.2, 41.2),
            (-9.2, 41.8),
            (-8.4, 41.8),
            (-8.4, 41.2),
        ])],
    )
}

#[test]
fn non_rectangular_region_matches_oracle_everywhere() {
    let region = l_region_with_hole();
    let queries = vec![
        Query::containment_polygon(region.clone()),
        Query::Aggregation {
            region: region.clone(),
            metrics: vec![Metric::Area, Metric::Perimeter, Metric::Count],
            model: DistanceModel::Spherical,
            strategy: FilterStrategy::Auto,
        },
    ];
    for format in [Format::GeoJson, Format::Wkt, Format::OsmXml] {
        let ds = dataset(305, 120, format);
        let answers = oracle_answers(&ds, &queries);
        // The L must select something, and both its notch and its hole
        // must drop features its bounding box would select.
        let mut solid = region.clone();
        solid.holes.clear();
        let boxed = oracle(&ds, format, &BaselineQuery::containment(region.mbr()));
        let solid = oracle(&ds, format, &BaselineQuery::Containment(solid));
        match (&answers[0], &solid, &boxed) {
            (
                Some(BaselineAnswer::Matches(l)),
                BaselineAnswer::Matches(s),
                BaselineAnswer::Matches(b),
            ) => assert!(
                !l.is_empty() && l.len() < s.len() && s.len() < b.len(),
                "{format:?}: {} < {} < {}",
                l.len(),
                s.len(),
                b.len()
            ),
            other => panic!("{other:?}"),
        }
        let mut first: Option<Vec<QueryResult>> = None;
        for &mode in modes(format) {
            for blocks in [1usize, 3, 8] {
                let engine = Engine::builder()
                    .threads(1)
                    .block_multiplier(blocks)
                    .mode(mode)
                    .cell_size(2.0)
                    .build();
                let label = format!("{format:?} {mode:?} blocks={blocks}");
                let got = engine.execb(&queries, &ds).unwrap();
                assert_agrees_with_oracle(&answers, &got, &label);
                let sharded = engine
                    .run(&queries, &ds, &ExecOptions::new().sharded(4))
                    .and_then(|o| o.collapse())
                    .unwrap();
                assert_eq!(sharded, got, "{label} sharded 4 ways");
                let mut source = SliceChunkSource::new(ds.bytes(), 61);
                let streamed = engine
                    .run_streaming(&queries, &mut source, format, &ExecOptions::new())
                    .and_then(|o| o.collapse())
                    .unwrap();
                assert_eq!(streamed, got, "{label} streamed in 61-byte chunks");
                match &first {
                    None => first = Some(got),
                    Some(want) => assert_eq!(&got, want, "{label} vs the first configuration"),
                }
            }
        }
    }
}

#[test]
fn non_finite_region_matches_nothing_in_engine_and_oracle() {
    // A region with a NaN or infinite bound matches nothing, in the
    // engine's prepared sinks and in the oracle alike; the same box
    // with a finite bound selects features, so the check has teeth.
    let finite = Mbr::new(-6.0, 44.0, 4.0, 56.0);
    for format in [Format::GeoJson, Format::Wkt, Format::OsmXml] {
        let ds = dataset(301, 90, format);
        match oracle(&ds, format, &BaselineQuery::containment(finite)) {
            BaselineAnswer::Matches(ids) => assert!(!ids.is_empty(), "{format:?}"),
            other => panic!("{other:?}"),
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let region = Mbr {
                max_x: bad,
                ..finite
            };
            let queries = vec![Query::containment(region), Query::aggregation(region)];
            let answers = oracle_answers(&ds, &queries);
            assert_eq!(answers[0], Some(BaselineAnswer::Matches(vec![])));
            for threads in [1, 2] {
                let engine = Engine::builder().threads(threads).build();
                let got = engine
                    .run(&queries, &ds, &ExecOptions::new())
                    .and_then(|o| o.collapse())
                    .unwrap();
                let label = format!("{format:?} max_x={bad} threads={threads}");
                assert_agrees_with_oracle(&answers, &got, &label);
            }
        }
    }
}

/// The paper-comparison baselines agree with the `sequential` oracle
/// and the engine on a region with a NaN or infinite bound: nothing
/// matches, for containment and aggregation, under both column-scan
/// refinements. The all-infinite box is the one a box-only scan would
/// otherwise answer with every feature.
#[test]
fn baselines_agree_with_engine_on_non_finite_regions() {
    use atgis_baselines::column_scan::{ColumnStore, Refinement};
    use atgis_baselines::indexed::IndexedStore;
    let finite = Mbr::new(-6.0, 44.0, 4.0, 56.0);
    let inf = f64::INFINITY;
    let regions = [
        Mbr {
            max_x: f64::NAN,
            ..finite
        },
        Mbr {
            min_y: f64::NAN,
            ..finite
        },
        Mbr {
            max_x: inf,
            ..finite
        },
        Mbr {
            min_x: -inf,
            ..finite
        },
        Mbr::new(-inf, -inf, inf, inf),
    ];
    for format in [Format::GeoJson, Format::Wkt] {
        let ds = dataset(301, 90, format);
        let columns = ColumnStore::load(ds.bytes(), format).unwrap();
        let mut indexed = IndexedStore::load(ds.bytes(), format).unwrap();
        indexed.build_index();
        let engine = Engine::builder().threads(2).build();
        for region in regions {
            for (query, baseline) in [
                (
                    Query::containment(region),
                    BaselineQuery::containment(region),
                ),
                (
                    Query::aggregation(region),
                    BaselineQuery::aggregation(region),
                ),
            ] {
                let want = oracle(&ds, format, &baseline);
                let label = format!("{format:?} {region:?} {want:?}");
                assert!(
                    want == BaselineAnswer::Matches(vec![])
                        || want == BaselineAnswer::Aggregate(0, 0.0, 0.0),
                    "the oracle matches nothing [{label}]"
                );
                assert_eq!(indexed.execute(&baseline), want, "indexed [{label}]");
                for refinement in [Refinement::BoxOnly, Refinement::FullGeometry] {
                    for threads in [1, 2] {
                        assert_eq!(
                            columns.execute(&baseline, refinement, threads),
                            want,
                            "column scan {refinement:?} threads={threads} [{label}]"
                        );
                    }
                }
                let got = engine
                    .run(&[query], &ds, &ExecOptions::new())
                    .and_then(|o| o.collapse())
                    .unwrap();
                assert_agrees_with_oracle(&[Some(want)], &got, &label);
            }
        }
    }
}

/// Every query-kind mix the batch suite sweeps: each kind alone, every
/// pair class, and a full 8-query mixed batch with duplicates (the
/// serving-traffic shape).
fn batch_mixes(n: u64) -> Vec<Vec<Query>> {
    let world = Mbr::new(-180.0, -90.0, 180.0, 90.0);
    let region = Mbr::new(-8.0, 42.0, 6.0, 58.0);
    vec![
        vec![Query::containment(region)],
        vec![Query::aggregation(region)],
        vec![Query::join(n / 2)],
        vec![Query::combined(n / 2, 0.0, f64::INFINITY)],
        vec![Query::containment(region), Query::aggregation(world)],
        vec![Query::containment(region), Query::join(n / 3)],
        vec![
            // The 8-query mixed batch: all kinds, duplicate kinds with
            // different parameters, duplicate identical queries.
            Query::containment(region),
            Query::containment(world),
            Query::aggregation(region),
            Query::aggregation(world),
            Query::join(n / 2),
            Query::join(n / 4),
            Query::combined(n / 2, 0.0, f64::INFINITY),
            Query::containment(region),
        ],
    ]
}

/// A batch `run(qs)` must be **bit-identical** to running each query
/// alone — exact float equality, exact orders — and agree with the
/// sequential oracle, for every query-kind mix, across threads ×
/// GeoJSON's PAT/FAT × uniform/adaptive partitioning, on both
/// single-pass formats.
#[test]
fn batch_execution_matches_sequential_everywhere() {
    for format in [Format::GeoJson, Format::Wkt] {
        let n = 90u64;
        let ds = dataset_with(
            OsmGenerator::new(308).with_hotspot(0.4, 0.05),
            n as usize,
            format,
        );
        let answers: Vec<_> = batch_mixes(n)
            .iter()
            .map(|mix| oracle_answers(&ds, mix))
            .collect();
        for threads in THREADS {
            for target in PARTITION_TARGETS {
                for &mode in modes(format) {
                    let engine = Engine::builder()
                        .threads(threads)
                        .mode(mode)
                        .cell_size(2.0)
                        .partition_target(target)
                        .build();
                    for (mi, mix) in batch_mixes(n).iter().enumerate() {
                        let want: Vec<QueryResult> =
                            mix.iter().map(|q| engine.exec1(q, &ds).unwrap()).collect();
                        let (got, stats) = engine.execb_timed(mix, &ds).unwrap();
                        let config = format!(
                            "{format:?} threads={threads} target={target} mode={mode:?} mix={mi}"
                        );
                        assert_eq!(got, want, "batch != sequential [{config}]");
                        assert_agrees_with_oracle(&answers[mi], &got, &config);
                        assert_eq!(
                            stats.scan_passes, 1,
                            "every mix runs exactly one shared pass [{config}]"
                        );
                        assert_eq!(stats.queries as usize, mix.len());
                    }
                }
            }
        }
    }
}

/// The XML path (collection pass + node-table joins) through the batch
/// layer.
#[test]
fn batch_execution_matches_sequential_on_xml() {
    let ds = dataset(309, 40, Format::OsmXml);
    let mix = vec![
        Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
        Query::aggregation(Mbr::new(-8.0, 42.0, 6.0, 58.0)),
        Query::join(20),
    ];
    let answers = oracle_answers(&ds, &mix);
    for threads in THREADS {
        let engine = Engine::builder().threads(threads).cell_size(2.0).build();
        let want: Vec<QueryResult> = mix.iter().map(|q| engine.exec1(q, &ds).unwrap()).collect();
        let got = engine.execb(&mix, &ds).unwrap();
        assert_eq!(got, want, "xml batch threads={threads}");
        assert_agrees_with_oracle(&answers, &got, &format!("xml batch threads={threads}"));
    }

    // The XML node-table pass is cached with the partition index:
    // warm-session join-only batches run zero parse passes, same as
    // the single-pass formats.
    let engine = Engine::builder().threads(2).cell_size(2.0).build();
    let join_only = vec![Query::join(20)];
    let want: Vec<QueryResult> = join_only
        .iter()
        .map(|q| engine.exec1(q, &ds).unwrap())
        .collect();
    assert_agrees_with_oracle(&oracle_answers(&ds, &join_only), &want, "xml join");
    let session = QuerySession::new(engine, ds);
    let (cold, s_cold) = session.execb_timed(&join_only).unwrap();
    let (warm, s_warm) = session.execb_timed(&join_only).unwrap();
    assert_eq!(cold, want);
    assert_eq!(warm, want);
    assert_eq!(s_cold.scan_passes, 2, "partition pass + node-table pass");
    assert_eq!(s_warm.scan_passes, 0, "both XML passes cached");
}

/// The fused XML collection pass is block-parallel: however the file
/// is cut — one block, or more blocks than lines in places — and
/// however many workers fold the pieces, `Engine::run` must answer
/// as the one-block, one-thread run (itself checked against the
/// sequential oracle) does. Runs over the generator's
/// one-way-per-line layout and over the same document with every
/// `<nd>` on a line of its own, so cuts fall inside ways.
#[test]
fn xml_answers_are_identical_across_threads_and_block_counts() {
    let n = 60u64;
    let one_per_line = write_osm_xml(&OsmGenerator::new(331).generate(n as usize));
    let multi_line = String::from_utf8(one_per_line.clone())
        .expect("generated XML is UTF-8")
        .replace("<nd ", "\n  <nd ")
        .into_bytes();
    let mix = vec![
        Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
        Query::aggregation(Mbr::new(-8.0, 42.0, 6.0, 58.0)),
        Query::join(n / 2),
    ];
    for (layout, bytes) in [("one per line", one_per_line), ("multi-line", multi_line)] {
        let ds = materialize(bytes, Format::OsmXml);
        let serial = Engine::builder()
            .threads(1)
            .block_multiplier(1)
            .cell_size(2.0)
            .build();
        let want = serial.execb(&mix, &ds).unwrap();
        assert_agrees_with_oracle(
            &oracle_answers(&ds, &mix),
            &want,
            &format!("{layout}: one block, one thread"),
        );
        assert!(
            want[0].matches().len() >= n as usize / 2,
            "{layout}: the query must select"
        );
        for threads in [1usize, 2, 3] {
            for multiplier in [1usize, 8, 32] {
                let engine = Engine::builder()
                    .threads(threads)
                    .block_multiplier(multiplier)
                    .cell_size(2.0)
                    .build();
                let got = engine.execb(&mix, &ds).unwrap();
                assert_eq!(
                    got, want,
                    "{layout}, threads={threads} multiplier={multiplier}"
                );
            }
        }
    }
}

/// A `QuerySession` must keep answering identically while its
/// partition-index cache warms up (second batch: zero parse passes
/// for join-only traffic).
#[test]
fn session_batches_stay_consistent_across_cache_states() {
    let n = 80u64;
    let ds = dataset_with(
        OsmGenerator::new(310).with_hotspot(0.4, 0.05),
        n as usize,
        Format::GeoJson,
    );
    for target in PARTITION_TARGETS {
        let engine = Engine::builder()
            .threads(2)
            .cell_size(2.0)
            .partition_target(target)
            .build();
        let joins = vec![
            Query::join(n / 2),
            Query::combined(n / 3, 0.0, f64::INFINITY),
        ];
        let want: Vec<QueryResult> = joins
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        assert_agrees_with_oracle(&oracle_answers(&ds, &joins), &want, "session joins");
        let session = QuerySession::new(engine, ds.clone());
        let (cold, s_cold) = session.execb_timed(&joins).unwrap();
        let (warm, s_warm) = session.execb_timed(&joins).unwrap();
        assert_eq!(cold, want, "cold cache, target={target}");
        assert_eq!(warm, want, "warm cache, target={target}");
        assert_eq!(s_cold.scan_passes, 1);
        assert_eq!(
            s_warm.scan_passes, 0,
            "join-only batch over a cached index re-parses nothing"
        );
        assert_eq!(session.cached_indexes(), 1);
    }
}

/// The duplicate-heavy traffic shape the scheduler's policies exist
/// for: every query kind, exact duplicates of each (different
/// submitters, identical predicates), and one scan-heavy join.
fn duplicate_heavy_mix(n: u64) -> Vec<Query> {
    let region = Mbr::new(-8.0, 42.0, 6.0, 58.0);
    let world = Mbr::new(-180.0, -90.0, 180.0, 90.0);
    vec![
        Query::containment(region),
        Query::aggregation(region),
        Query::containment(region), // dup of 0
        Query::join(n / 2),
        Query::aggregation(world),
        Query::combined(n / 2, 0.0, f64::INFINITY),
        Query::aggregation(region), // dup of 1
        Query::join(n / 2),         // dup of 3
        Query::containment(world),
        Query::combined(n / 2, 0.0, f64::INFINITY), // dup of 5
    ]
}

/// The scheduler configurations the suite sweeps: with the aggregate
/// cache, and without it (capacity 0). Dedup and admission always run.
fn schedulers(engine: &Engine) -> Vec<(&'static str, QueryScheduler)> {
    vec![
        ("cached", QueryScheduler::new(engine.clone())),
        (
            "uncached",
            QueryScheduler::with_cache_capacity(engine.clone(), 0),
        ),
    ]
}

/// Scheduled execution — predicate dedup, admission waves, with and
/// without aggregate caching — must stay **bit-identical**
/// to running each query alone (itself held to the sequential oracle)
/// across threads × modes × formats, on the first (cold) batch and on
/// the repeat (cache-served) batch.
#[test]
fn scheduled_batch_execution_matches_sequential_everywhere() {
    for format in [Format::GeoJson, Format::Wkt] {
        let n = 90u64;
        let ds = dataset_with(
            OsmGenerator::new(311).with_hotspot(0.4, 0.05),
            n as usize,
            format,
        );
        let mix = duplicate_heavy_mix(n);
        let answers = oracle_answers(&ds, &mix);
        for threads in THREADS {
            for &mode in modes(format) {
                let engine = Engine::builder()
                    .threads(threads)
                    .mode(mode)
                    .cell_size(2.0)
                    .build();
                let want: Vec<QueryResult> =
                    mix.iter().map(|q| engine.exec1(q, &ds).unwrap()).collect();
                assert_agrees_with_oracle(
                    &answers,
                    &want,
                    &format!("{format:?} threads={threads} mode={mode:?}"),
                );
                for (cname, scheduler) in schedulers(&engine) {
                    let id = scheduler.register(ds.clone());
                    let label =
                        format!("{format:?} threads={threads} mode={mode:?} config={cname}");
                    let (cold, s_cold) = scheduler.execb_timed(id, &mix).unwrap();
                    assert_eq!(cold, want, "cold scheduled != sequential [{label}]");
                    let (warm, s_warm) = scheduler.execb_timed(id, &mix).unwrap();
                    assert_eq!(warm, want, "warm scheduled != sequential [{label}]");
                    assert_eq!(s_cold.queries as usize, mix.len());
                    assert_eq!(s_cold.latencies.len(), mix.len());
                    assert_eq!(s_cold.dedup_hits, 4, "[{label}]");
                    if scheduler.cache_stats().capacity > 0 {
                        // Six single-pass submissions over three
                        // distinct predicates... plus the fourth
                        // distinct world-containment: all served from
                        // cache on the repeat.
                        assert_eq!(s_warm.cache_hits, 6, "[{label}]");
                    }
                }
            }
        }
    }
}

/// Admission splits under its fixed policy: the two small tiles cost
/// about 0.15 scan-equivalents each, and the join's prior cost (4.0)
/// exceeds the outlier ratio (4) times their sum, so the cold batch
/// runs the join in a wave of its own. The split waves stay
/// bit-identical to unscheduled execution.
#[test]
fn admission_split_waves_match_unscheduled_execution() {
    let n = 90u64;
    let queries = vec![
        Query::containment(Mbr::new(-8.0, 42.0, 6.0, 58.0)),
        Query::join(n / 2),
        Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
    ];
    for format in [Format::GeoJson, Format::Wkt] {
        let ds = dataset_with(
            OsmGenerator::new(311).with_hotspot(0.4, 0.05),
            n as usize,
            format,
        );
        let answers = oracle_answers(&ds, &queries);
        for threads in THREADS {
            let engine = Engine::builder().threads(threads).cell_size(2.0).build();
            let want = engine
                .run(&queries, &ds, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .unwrap();
            let label = format!("{format:?} threads={threads}");
            assert_agrees_with_oracle(&answers, &want, &label);
            for (cname, scheduler) in schedulers(&engine) {
                let id = scheduler.register(ds.clone());
                let (got, stats) = scheduler.execb_timed(id, &queries).unwrap();
                assert!(
                    stats.waves.len() >= 2,
                    "the join must run in its own wave [{label} {cname}]: {:?}",
                    stats.waves
                );
                assert_eq!(got, want, "split waves != unscheduled [{label} {cname}]");
            }
        }
    }
}

/// A mutated (updated / re-ingested) dataset bumps its generation:
/// the aggregate cache must **never** serve results computed against
/// the old bytes.
#[test]
fn scheduled_batch_cache_invalidation_on_dataset_update() {
    let region = Mbr::new(-8.0, 42.0, 6.0, 58.0);
    for format in [Format::GeoJson, Format::Wkt] {
        let ds_v1 = dataset(312, 60, format);
        let ds_v2 = dataset(313, 85, format); // the "re-ingested" content
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let queries = vec![
            Query::containment(region),
            Query::aggregation(region),
            Query::containment(region),
        ];
        let want_v1: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds_v1).unwrap())
            .collect();
        let want_v2: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds_v2).unwrap())
            .collect();
        assert_ne!(want_v1, want_v2, "generations must be distinguishable");
        assert_agrees_with_oracle(&oracle_answers(&ds_v1, &queries), &want_v1, "v1");
        assert_agrees_with_oracle(&oracle_answers(&ds_v2, &queries), &want_v2, "v2");

        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(ds_v1);
        assert_eq!(scheduler.execb(id, &queries).unwrap(), want_v1);
        // Warm every predicate into the cache.
        let (_, warm) = scheduler.execb_timed(id, &queries).unwrap();
        assert_eq!(warm.cache_hits, 3, "{format:?}: cache must be warm");

        scheduler.update(id, ds_v2).unwrap();
        let (fresh, stats) = scheduler.execb_timed(id, &queries).unwrap();
        assert_eq!(
            fresh, want_v2,
            "{format:?}: updated dataset must serve fresh results, never gen-1 cache"
        );
        assert_eq!(stats.cache_hits, 0, "{format:?}: old entries were dropped");
    }
}

/// The streaming lifecycle feeding the scheduler: ingest → seal →
/// adopt. Scheduled batches over the sealed session must equal
/// buffered sequential execution, and re-ingesting (a new seal of
/// different content) must invalidate the previous generation's
/// aggregates.
#[test]
fn scheduled_batch_over_sealed_streaming_session() {
    let n = 70usize;
    let gen_v1 = OsmGenerator::new(314).generate(n);
    let bytes_v1 = write_geojson(&gen_v1);
    let gen_v2 = OsmGenerator::new(315).generate(n + 20);
    let bytes_v2 = write_geojson(&gen_v2);
    let engine = Engine::builder().threads(2).cell_size(2.0).build();
    let mix = duplicate_heavy_mix(n as u64);
    let ds_v1 = Dataset::from_bytes(bytes_v1.clone(), Format::GeoJson);
    let ds_v2 = Dataset::from_bytes(bytes_v2.clone(), Format::GeoJson);
    let want_v1: Vec<QueryResult> = mix
        .iter()
        .map(|q| engine.exec1(q, &ds_v1).unwrap())
        .collect();
    let want_v2: Vec<QueryResult> = mix
        .iter()
        .map(|q| engine.exec1(q, &ds_v2).unwrap())
        .collect();
    assert_agrees_with_oracle(&oracle_answers(&ds_v1, &mix), &want_v1, "v1");
    assert_agrees_with_oracle(&oracle_answers(&ds_v2, &mix), &want_v2, "v2");

    // Ingest chunk by chunk, seal, adopt into the scheduler.
    let mut session = QuerySession::streaming(engine.clone(), Format::GeoJson).unwrap();
    for chunk in bytes_v1.chunks(777) {
        session.ingest_chunk(chunk).unwrap();
    }
    session.finish().unwrap();
    let scheduler = QueryScheduler::new(engine.clone());
    let id = scheduler.adopt(session).unwrap();
    let (got, stats) = scheduler.execb_timed(id, &mix).unwrap();
    assert_eq!(got, want_v1, "scheduled-over-sealed != buffered sequential");
    assert_eq!(
        stats.scan_passes, 1,
        "single-pass queries ride one shared pass; the sealed partition \
         index serves the joins with no partition pass of their own"
    );
    let (warm, _) = scheduler.execb_timed(id, &mix).unwrap();
    assert_eq!(warm, want_v1);

    // Re-ingest: a new stream seals different content; updating the
    // registration bumps the generation.
    let mut session = QuerySession::streaming(engine, Format::GeoJson).unwrap();
    for chunk in bytes_v2.chunks(1024) {
        session.ingest_chunk(chunk).unwrap();
    }
    session.finish().unwrap();
    scheduler.update(id, session.dataset().clone()).unwrap();
    let (fresh, stats) = scheduler.execb_timed(id, &mix).unwrap();
    assert_eq!(
        fresh, want_v2,
        "re-ingested stream must never serve the old generation's aggregates"
    );
    assert_eq!(stats.cache_hits, 0);
}

/// Multi-dataset batches: one call spanning several registered
/// datasets must equal per-dataset sequential execution, with dedup
/// scoped per dataset.
#[test]
fn scheduled_multi_dataset_batch_matches_sequential() {
    let n = 60u64;
    let ds_g = dataset(316, n as usize, Format::GeoJson);
    let ds_w = dataset(317, 80, Format::Wkt);
    let engine = Engine::builder().threads(2).cell_size(2.0).build();
    let region = Mbr::new(-8.0, 42.0, 6.0, 58.0);
    let qa = Query::containment(region);
    let qb = Query::aggregation(region);
    let qj = Query::join(n / 2);

    // Interleaved submission order across the two datasets, with a
    // cross-dataset "duplicate" (same predicate, different dataset —
    // must NOT dedup).
    let scheduler = QueryScheduler::new(engine.clone());
    let g = scheduler.register(ds_g.clone());
    let w = scheduler.register(ds_w.clone());
    let batch = vec![
        ScheduledQuery::new(g, qa.clone()),
        ScheduledQuery::new(w, qa.clone()),
        ScheduledQuery::new(g, qj.clone()),
        ScheduledQuery::new(w, qb.clone()),
        ScheduledQuery::new(g, qa.clone()), // true dup (same dataset)
    ];
    let want = vec![
        engine.exec1(&qa, &ds_g).unwrap(),
        engine.exec1(&qa, &ds_w).unwrap(),
        engine.exec1(&qj, &ds_g).unwrap(),
        engine.exec1(&qb, &ds_w).unwrap(),
        engine.exec1(&qa, &ds_g).unwrap(),
    ];
    let out = scheduler
        .run_multi(&batch, &ExecOptions::new().timed())
        .unwrap();
    let stats = out.scheduler.clone().unwrap();
    let got = out.collapse().unwrap();
    assert_eq!(got, want, "multi-dataset scheduled != sequential");
    assert_eq!(
        stats.dedup_hits, 1,
        "identical predicates on different datasets are different work"
    );
    assert_ne!(got[0], got[1], "the two datasets answer differently");
    for (i, sq) in batch.iter().enumerate() {
        let ds = if sq.dataset == g { &ds_g } else { &ds_w };
        assert_agrees_with_oracle(
            &oracle_answers(ds, std::slice::from_ref(&sq.query)),
            std::slice::from_ref(&got[i]),
            &format!("multi-dataset query {i}"),
        );
    }
}

/// The XML path (collection pass, node-table joins) through the
/// scheduler.
#[test]
fn scheduled_batch_matches_sequential_on_xml() {
    let n = 40u64;
    let ds = dataset(318, n as usize, Format::OsmXml);
    let engine = Engine::builder().threads(2).cell_size(2.0).build();
    let mix = duplicate_heavy_mix(n);
    let want: Vec<QueryResult> = mix.iter().map(|q| engine.exec1(q, &ds).unwrap()).collect();
    assert_agrees_with_oracle(&oracle_answers(&ds, &mix), &want, "xml scheduled");
    let scheduler = QueryScheduler::new(engine);
    let id = scheduler.register(ds);
    let (cold, _) = scheduler.execb_timed(id, &mix).unwrap();
    let (warm, s_warm) = scheduler.execb_timed(id, &mix).unwrap();
    assert_eq!(cold, want, "xml scheduled != sequential");
    assert_eq!(warm, want, "xml warm scheduled != sequential");
    assert!(s_warm.cache_hits > 0);
}

#[test]
fn bulk_scanner_matches_bytewise_reference() {
    // The GeoJSON structural lexer over a real serialised dataset:
    // `ByteDfa::run` (the SIMD lane loop) must emit exactly the action
    // tape of the byte-at-a-time reference from every start state.
    let bytes = write_geojson(&OsmGenerator::new(307).generate(100));
    let dfa = atgis_formats::geojson::lexer::lexer();
    let start = dfa.start_state();
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    let f_fin = dfa.run(start, &bytes, 0, |action, pos| fast.push((action, pos)));
    let s_fin = dfa.run_bytewise(start, &bytes, 0, |action, pos| slow.push((action, pos)));
    assert_eq!(f_fin, s_fin, "final states diverge");
    assert_eq!(fast.len(), slow.len(), "action tape lengths diverge");
    assert_eq!(fast, slow, "action tapes diverge");
    assert!(!fast.is_empty(), "the lexer must emit actions");

    // And from every state, over a chunk boundary, as FAT blocks do.
    let mid = bytes.len() / 2;
    for s in 0..dfa.num_states() as u8 {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let ff = dfa.run(s, &bytes[mid..], mid as u64, |a, p| fast.push((a, p)));
        let fs = dfa.run_bytewise(s, &bytes[mid..], mid as u64, |a, p| slow.push((a, p)));
        assert_eq!(ff, fs, "state {s}: finals diverge");
        assert_eq!(fast, slow, "state {s}: tapes diverge");
    }
}
