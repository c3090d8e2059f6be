//! Sharded scatter–gather differentials: `ExecOptions::sharded(n)`
//! must be **bit-identical** to single-node execution for every shard
//! count, thread count, parse mode, format, and query class — the
//! associativity guarantee `crate::shard` documents. On top of the
//! identity matrix this suite pins the observable scatter accounting
//! ([`atgis::stats::ShardStats`] and its `scattered + pruned =
//! queries × shards` invariant), MBR-based shard pruning on spatially
//! coherent storage, and (under `--features fault-injection`) the
//! per-shard fault-isolation contract: one shard's panic tombstones
//! exactly the queries scattered to it. Failpoints are process-wide,
//! so every test here holds the `serialised()` gate.
//!
//! Every unsharded reference is itself held to the
//! `atgis_baselines::sequential` oracle, so "sharded ≡ single-node"
//! never compares the executor with only itself.

use atgis::{Dataset, Engine, ExecOptions, Query, QueryResult, QuerySession, ShardSet};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;
use atgis_tests::{assert_agrees_with_oracle, modes, oracle_answers, serialised};

/// Spatially coherent dataset: generated objects sorted by centroid
/// longitude before serialisation — the storage order of a real
/// regional export. Byte-range shards then carry tight MBRs and
/// region queries can prune; shuffled storage degrades (gracefully,
/// still bit-identically) to scatter-everywhere.
fn sorted_dataset(seed: u64, objects: usize, format: Format) -> Dataset {
    let mut ds = OsmGenerator::new(seed).generate(objects);
    ds.objects.sort_by(|a, b| {
        let ax = a.geometry.mbr().center().x;
        let bx = b.geometry.mbr().center().x;
        ax.partial_cmp(&bx).expect("finite centroids")
    });
    let bytes = match format {
        Format::GeoJson => write_geojson(&ds),
        Format::Wkt => write_wkt(&ds),
        Format::OsmXml => write_osm_xml(&ds),
    };
    Dataset::from_bytes(bytes, format)
}

fn engine(threads: usize, mode: Mode) -> Engine {
    Engine::builder()
        .threads(threads)
        .mode(mode)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0)
        .build()
}

/// Every query class: selective containments and aggregations (so
/// pruning is in play) plus a join (which always scatters everywhere).
fn mixed_batch(objects: u64) -> Vec<Query> {
    vec![
        Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
        Query::containment(Mbr::new(-10.0, 40.0, -8.0, 42.0)),
        Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)),
        Query::aggregation(Mbr::new(6.0, 56.0, 10.0, 60.0)),
        Query::join(objects / 2),
    ]
}

/// The identity matrix: shard counts {1, 2, 4, 8} × threads {1, 3} ×
/// GeoJSON (Pat/Fat)/WKT/XML × containment/aggregation/join,
/// each sharded run compared against the same engine's unsharded run,
/// which in turn must agree with the sequential oracle.
#[test]
fn sharded_is_bit_identical_across_the_matrix() {
    let _gate = serialised();
    const OBJECTS: usize = 400;
    for format in [Format::GeoJson, Format::Wkt, Format::OsmXml] {
        let dataset = sorted_dataset(7, OBJECTS, format);
        let queries = mixed_batch(OBJECTS as u64);
        let answers = oracle_answers(&dataset, &queries);
        for threads in [1usize, 3] {
            for &mode in modes(format) {
                let engine = engine(threads, mode);
                let oracle = engine
                    .run(&queries, &dataset, &ExecOptions::new())
                    .and_then(|o| o.collapse())
                    .expect("single-node oracle");
                assert_agrees_with_oracle(
                    &answers,
                    &oracle,
                    &format!("{format:?}/{mode:?}/threads={threads}"),
                );
                for shards in [1usize, 2, 4, 8] {
                    let got = engine
                        .run(&queries, &dataset, &ExecOptions::new().sharded(shards))
                        .and_then(|o| o.collapse())
                        .expect("sharded run");
                    assert_eq!(
                        got, oracle,
                        "sharded != single-node at {format:?}/{mode:?}/threads={threads}/shards={shards}"
                    );
                }
            }
        }
    }
}

/// Pruning is observable and exactly accounted: `ShardStats` must
/// agree with the masks `ShardSet::scatter_mask` reports, satisfy
/// `scattered + pruned = queries × shards`, and a region disjoint
/// from the whole dataset must scatter nowhere yet still answer
/// (empty, identical to single-node).
#[test]
fn pruning_is_observable_and_exactly_accounted() {
    let _gate = serialised();
    let dataset = sorted_dataset(23, 800, Format::GeoJson);
    let engine = engine(2, Mode::Pat);
    let queries = vec![
        Query::containment(Mbr::new(-10.0, 40.0, -8.0, 42.0)),
        Query::aggregation(Mbr::new(6.0, 56.0, 10.0, 60.0)),
        // Disjoint from the generator's extent: prunes every shard.
        Query::containment(Mbr::new(120.0, -10.0, 130.0, 0.0)),
    ];
    let shards = 4usize;
    let set = ShardSet::build(&engine, &dataset, shards, None).expect("shard layout");
    assert_eq!(
        set.len(),
        shards,
        "dataset large enough for {shards} shards"
    );
    let masks: Vec<Vec<bool>> = queries.iter().map(|q| set.scatter_mask(q)).collect();
    assert!(
        masks.iter().any(|m| m.iter().any(|&b| !b)),
        "selective regions on sorted storage must prune somewhere"
    );
    assert!(
        masks[2].iter().all(|&b| !b),
        "a region disjoint from the dataset prunes every shard"
    );

    let answers = oracle_answers(&dataset, &queries);
    let session = QuerySession::new(engine, dataset);
    let oracle = session
        .run(&queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("single-node oracle");
    assert_agrees_with_oracle(&answers, &oracle, "pruning");
    let out = session
        .run(&queries, &ExecOptions::new().sharded(shards).timed())
        .expect("sharded run");
    let stats = out
        .shard_stats()
        .expect("timed sharded run reports ShardStats")
        .clone();

    let expect_scattered: u64 = masks
        .iter()
        .map(|m| m.iter().filter(|&&b| b).count() as u64)
        .sum();
    assert_eq!(stats.shards, shards as u64);
    assert_eq!(stats.scattered, expect_scattered);
    assert_eq!(
        stats.scattered + stats.pruned,
        (queries.len() * shards) as u64,
        "every (query, shard) pair is either scattered or pruned"
    );
    assert!(stats.pruned > 0);
    assert_eq!(stats.per_shard.len(), shards);
    for (s, timing) in stats.per_shard.iter().enumerate() {
        let expect = masks.iter().filter(|m| m[s]).count() as u64;
        assert_eq!(timing.queries, expect, "per-shard query count at shard {s}");
    }

    let got = out.collapse().expect("sharded results");
    assert_eq!(got, oracle);
    assert_eq!(
        got[2],
        QueryResult::Matches(Vec::new()),
        "fully-pruned query still answers, with the identity result"
    );
}

/// A byte range of OSM XML cannot be parsed alone (ways and relations
/// need the whole node table), so an XML layout is one shard whatever
/// the requested count: a `sharded(4)` run is the single-node run, and
/// reports no scatter accounting.
#[test]
fn xml_layout_is_one_shard_and_matches_single_node() {
    let _gate = serialised();
    const OBJECTS: usize = 300;
    let dataset = sorted_dataset(11, OBJECTS, Format::OsmXml);
    let engine = engine(2, Mode::Pat);
    let set = ShardSet::build(&engine, &dataset, 4, None).expect("shard layout");
    assert_eq!(set.len(), 1, "an XML layout is one shard");
    assert_eq!(set.shards()[0].start, 0);
    assert_eq!(set.shards()[0].end, dataset.len());

    let queries = mixed_batch(OBJECTS as u64);
    let single = engine
        .run(&queries, &dataset, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("single-node run");
    assert_agrees_with_oracle(&oracle_answers(&dataset, &queries), &single, "xml");
    let out = engine
        .run(&queries, &dataset, &ExecOptions::new().sharded(4).timed())
        .expect("sharded run");
    assert!(out.shard_stats().is_none(), "one shard scatters nothing");
    assert_eq!(out.collapse().expect("sharded results"), single);
}

/// Every feature's `properties` hold a Feature-shaped object (the §3.5
/// trap). Shard cuts are feature starts the parser reported, never
/// the decoy's `{"type":"Feature"` bytes, so FAT at every shard count
/// is the single-node answer. FAT only: PAT trusts marker bytes by
/// design.
#[test]
fn decoy_markers_never_become_shard_cuts() {
    let _gate = serialised();
    const OBJECTS: usize = 400;
    let features: Vec<String> = (0..OBJECTS)
        .map(|i| {
            let t = i as f64 / OBJECTS as f64;
            format!(
                r#"{{"type":"Feature","geometry":{{"type":"Point","coordinates":[{},{}]}},"id":{},"properties":{{"trap":{{"type":"Feature","x":1}},"name":"decoy"}}}}"#,
                -10.0 + 20.0 * t,
                40.0 + 20.0 * t,
                i + 1
            )
        })
        .collect();
    let doc = format!(
        r#"{{"type":"FeatureCollection","features":[{}]}}"#,
        features.join(",")
    );
    let dataset = Dataset::from_bytes(doc.into_bytes(), Format::GeoJson);
    let mut queries = mixed_batch(OBJECTS as u64);
    queries.push(Query::containment(Mbr::new(-11.0, 39.0, 11.0, 61.0)));
    let answers = oracle_answers(&dataset, &queries);
    for threads in [1usize, 2, 3] {
        let engine = engine(threads, Mode::Fat);
        let single = engine
            .run(&queries, &dataset, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("single-node run");
        assert_agrees_with_oracle(&answers, &single, &format!("decoy/threads={threads}"));
        match &single[5] {
            QueryResult::Matches(m) => assert_eq!(m.len(), OBJECTS, "every feature matches"),
            other => panic!("containment answered {other:?}"),
        }
        for shards in [2usize, 4, 8] {
            let set = ShardSet::build(&engine, &dataset, shards, None).expect("shard layout");
            assert_eq!(set.len(), shards, "the decoys split into {shards} shards");
            for s in &set.shards()[1..] {
                assert!(
                    dataset.bytes()[s.start..].starts_with(br#"{"type":"Feature","geometry""#),
                    "shard cut at byte {} is not a feature start",
                    s.start
                );
            }
            let got = engine
                .run(&queries, &dataset, &ExecOptions::new().sharded(shards))
                .and_then(|o| o.collapse())
                .expect("sharded run over the decoys");
            assert_eq!(
                got, single,
                "sharded != single-node at threads={threads}/shards={shards}"
            );
        }
    }
}

/// Per-shard fault isolation, driven by the shard-targeted failpoint
/// `shard.scan.N`: panicking exactly one shard must tombstone exactly
/// the queries scattered to it (per `ShardSet::scatter_mask`), while
/// every batch-mate that never touched the failing shard returns its
/// oracle-identical result.
#[cfg(feature = "fault-injection")]
mod fault_isolation {
    use super::*;
    use atgis::fault::{self, FaultAction};
    use atgis::{Error, QueryError, QueryScheduler};

    #[test]
    fn one_shard_panic_tombstones_only_its_queries() {
        let _gate = serialised();
        fault::disarm_all();
        let dataset = sorted_dataset(43, 600, Format::GeoJson);
        let engine = engine(2, Mode::Pat);
        let shards = 4usize;
        let set = ShardSet::build(&engine, &dataset, shards, None).expect("shard layout");
        assert_eq!(set.len(), shards);

        let queries = mixed_batch(600);
        let masks: Vec<Vec<bool>> = queries.iter().map(|q| set.scatter_mask(q)).collect();
        assert!(
            masks.iter().any(|m| m[1]) && masks.iter().any(|m| !m[1]),
            "the batch must both touch and miss shard 1 for this test to bite: {masks:?}"
        );

        let oracle = engine
            .run(&queries, &dataset, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("clean oracle");
        assert_agrees_with_oracle(&oracle_answers(&dataset, &queries), &oracle, "clean run");

        fault::arm("shard.scan.1", FaultAction::Panic("shard 1 down".into()));
        let isolated = engine
            .run(
                &queries,
                &dataset,
                &ExecOptions::new().sharded(shards).isolated(),
            )
            .expect("isolated run survives the shard panic");
        let whole = engine
            .run(&queries, &dataset, &ExecOptions::new().sharded(shards))
            .expect_err("whole-batch semantics promote the tombstone");
        let hits = fault::disarm("shard.scan.1");
        fault::disarm_all();

        assert_eq!(hits, 2, "the failpoint fires once per sharded run");
        assert!(
            matches!(&whole, Error::TaskPanicked(m) if m.contains("shard 1 down")),
            "unexpected whole-batch error: {whole:?}"
        );
        for (i, outcome) in isolated.outcomes.iter().enumerate() {
            if masks[i][1] {
                assert!(
                    matches!(outcome, Err(QueryError::Panicked(m)) if m.contains("shard 1 down")),
                    "query {i} scattered to the failing shard must tombstone: {outcome:?}"
                );
            } else {
                assert_eq!(
                    outcome.as_ref().expect("query missed the failing shard"),
                    &oracle[i],
                    "query {i} never touched shard 1 and must match the oracle"
                );
            }
        }
    }

    /// An unsharded scan is one range, so `shard.scan.0` fails all of
    /// it: every query's work was hit, so an isolated run tombstones
    /// every query, and a whole-batch run fails with `TaskPanicked`.
    #[test]
    fn unsharded_range_panic_tombstones_every_query() {
        let _gate = serialised();
        fault::disarm_all();
        let dataset = sorted_dataset(44, 300, Format::GeoJson);
        let engine = engine(2, Mode::Pat);
        let queries = mixed_batch(300);

        fault::arm("shard.scan.0", FaultAction::Panic("range 0 down".into()));
        let isolated = engine
            .run(&queries, &dataset, &ExecOptions::new().isolated())
            .expect("isolated run survives the range panic");
        let whole = engine
            .run(&queries, &dataset, &ExecOptions::new())
            .expect_err("whole-batch semantics promote the tombstone");
        let hits = fault::disarm("shard.scan.0");
        fault::disarm_all();

        assert_eq!(hits, 2, "the failpoint fires once per unsharded run");
        assert!(
            matches!(&whole, Error::TaskPanicked(m) if m.contains("range 0 down")),
            "unexpected whole-batch error: {whole:?}"
        );
        assert_eq!(isolated.outcomes.len(), queries.len());
        for (i, outcome) in isolated.outcomes.iter().enumerate() {
            assert!(
                matches!(outcome, Err(QueryError::Panicked(m)) if m.contains("range 0 down")),
                "query {i} rode the failing range and must tombstone: {outcome:?}"
            );
        }
        // The engine stays serviceable once the point is disarmed.
        let clean = engine
            .run(&queries, &dataset, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("clean run");
        assert_agrees_with_oracle(&oracle_answers(&dataset, &queries), &clean, "after");
    }

    /// A join tombstoned by a shard panic did no join work, so it must
    /// not teach the scheduler's admission model that joins are cheap:
    /// the estimate stays at its prior until a join succeeds.
    #[test]
    fn failed_sharded_join_leaves_the_join_estimate_alone() {
        let _gate = serialised();
        fault::disarm_all();
        let dataset = sorted_dataset(45, 600, Format::GeoJson);
        let scheduler = QueryScheduler::with_cache_capacity(engine(2, Mode::Pat), 0);
        let id = scheduler.register(dataset);
        let join = Query::join(300);
        let prior = scheduler.estimate_query_cost(id, &join).expect("estimate");

        fault::arm("shard.scan.1", FaultAction::Panic("shard 1 down".into()));
        let out = scheduler
            .run(
                id,
                &[
                    Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
                    join.clone(),
                ],
                &ExecOptions::new().sharded(4).isolated(),
            )
            .expect("isolated scheduled run");
        let hits = fault::disarm("shard.scan.1");
        fault::disarm_all();

        assert!(hits >= 1, "the sharded wave reached shard 1");
        assert!(
            matches!(&out.outcomes[1], Err(QueryError::Panicked(m)) if m.contains("shard 1 down")),
            "the join rides every shard and must tombstone: {:?}",
            out.outcomes[1]
        );
        assert_eq!(
            scheduler.estimate_query_cost(id, &join).expect("estimate"),
            prior,
            "a failed join must not feed the admission model"
        );
    }
}
