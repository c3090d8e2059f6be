//! Fault-injection differentials (gated on the `fault-injection`
//! feature): with faults armed, un-cancelled queries must still be
//! **bit-identical** to the clean oracle; injected panics must be
//! contained to the failing wave while the engine, pool, and
//! scheduler stay serviceable; and cancellation injected at arbitrary
//! chunk boundaries must always resolve to "oracle-identical" or
//! "cleanly cancelled" — never a hang or a corrupt result.
//!
//! Seeds are randomized per run and printed (`fault seed: N`) so a
//! failing CI run is reproducible with `ATGIS_FAULT_SEED=N`.

#![cfg(feature = "fault-injection")]

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use atgis::fault::{self, CancelAfterChunks, FaultAction, FaultInjector};
use atgis::{
    CancelToken, Dataset, Engine, Error, ExecOptions, Query, QueryError, QueryResult,
    QueryScheduler, QuerySession, SliceChunkSource,
};
use atgis_datagen::{write_geojson, write_osm_xml, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use atgis_tests::{serialised, RunExt, SchedRunExt, StreamRunExt};

/// Per-run randomized seed, printed for reproducibility and
/// overridable with `ATGIS_FAULT_SEED`.
fn run_seed(test: &str) -> u64 {
    let seed = match std::env::var("ATGIS_FAULT_SEED") {
        Ok(s) => s.parse().expect("ATGIS_FAULT_SEED must be a u64"),
        Err(_) => {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .expect("clock before epoch")
                .subsec_nanos() as u64
                ^ 0x5eed_5eed
        }
    };
    eprintln!("{test}: fault seed: {seed}");
    seed
}

fn engine(threads: usize) -> Engine {
    Engine::builder().threads(threads).cell_size(2.0).build()
}

fn bytes(seed: u64, n: usize) -> Vec<u8> {
    write_geojson(&OsmGenerator::new(seed).generate(n))
}

fn queries(n_objects: u64) -> Vec<Query> {
    vec![
        Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
        Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
        Query::join(n_objects / 2),
        Query::combined(n_objects / 2, 0.0, f64::INFINITY),
    ]
}

#[test]
fn faulty_stream_is_bit_identical_with_retries_recorded() {
    let _gate = serialised();
    let seed = run_seed("faulty_stream_is_bit_identical_with_retries_recorded");
    let data = bytes(2101, 60);
    let e = engine(2);
    let qs = queries(60);
    let ds = Dataset::from_bytes(data.clone(), Format::GeoJson);
    let oracle: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();

    // Small chunks → many read calls → the 20% transient-error rate is
    // statistically certain to fire at least once for any seed; the
    // consecutive-injection cap keeps every run inside the retry
    // budget, so completion is guaranteed, not probabilistic.
    let injector = FaultInjector::new(seed);
    let mut source = injector.faulty_source(SliceChunkSource::new(&data, 64));
    let (results, _batch, stream) = e.streamb_timed(&qs, &mut source, Format::GeoJson).unwrap();
    assert_eq!(results, oracle, "faults must never alter results");
    assert!(
        source.injected_errors() > 0,
        "harness injected nothing (seed {seed})"
    );
    assert_eq!(
        stream.retries,
        source.injected_errors(),
        "every injected transient error is one recorded retry (seed {seed})"
    );
}

#[test]
fn slow_chunks_change_timing_not_results() {
    let _gate = serialised();
    let seed = run_seed("slow_chunks_change_timing_not_results");
    let data = bytes(2102, 40);
    let e = engine(2);
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let oracle = e
        .exec1(&q, &Dataset::from_bytes(data.clone(), Format::GeoJson))
        .unwrap();
    let mut source = FaultInjector::new(seed)
        .faulty_source(SliceChunkSource::new(&data, 128))
        .with_transient_errors(0)
        .with_slow_chunks(500, Duration::from_micros(200));
    let got = e.stream1(&q, &mut source, Format::GeoJson).unwrap();
    assert_eq!(got, oracle);
    assert!(
        source.injected_slow_chunks() > 0,
        "seed {seed} stalled nothing"
    );
}

#[test]
fn armed_executor_panic_is_contained_to_the_batch() {
    let _gate = serialised();
    fault::disarm_all();
    let e = engine(2);
    let ds = Dataset::from_bytes(bytes(2103, 60), Format::GeoJson);
    let qs = queries(60);
    let oracle: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();

    fault::arm(
        "executor.block",
        FaultAction::Panic("injected executor panic".into()),
    );
    // The shared scan dies, so the whole batch reports the panic — as
    // a structured error, not an unwind, and without poisoning the
    // pool or any engine lock.
    match e.execb(&qs, &ds) {
        Err(Error::TaskPanicked(m)) => {
            assert!(m.contains("injected executor panic"), "payload lost: {m}")
        }
        other => panic!("expected TaskPanicked, got {other:?}"),
    }
    let hits = fault::disarm("executor.block");
    assert!(hits > 0, "the failpoint never fired");

    // Disarmed: the same engine serves the same batch bit-identically.
    assert_eq!(e.execb(&qs, &ds).unwrap(), oracle);
}

/// A run's answers plus how often `executor.block` fired during it —
/// one hit per scanned block, so the count tells how many passes the
/// run made over the input.
fn answers_and_block_hits(
    run: impl FnOnce() -> atgis::Result<atgis::RunOutcome>,
) -> (Vec<QueryResult>, u64) {
    fault::arm("executor.block", FaultAction::Sleep(Duration::ZERO));
    let out = run().and_then(|o| o.collapse());
    let hits = fault::disarm("executor.block");
    (out.expect("clean run"), hits)
}

#[test]
fn sharded_xml_runs_scan_the_input_as_often_as_unsharded_ones() {
    // An XML layout is always the whole file, so a sharded XML run
    // must not pay a bounding pass for it: per entry point, the
    // sharded run scans exactly the blocks the unsharded run does.
    let _gate = serialised();
    fault::disarm_all();
    let e = engine(2);
    let ds = Dataset::from_bytes(
        write_osm_xml(&OsmGenerator::new(2111).generate(60)),
        Format::OsmXml,
    );
    let qs = queries(60);
    let (single, single_hits) = answers_and_block_hits(|| e.run(&qs, &ds, &ExecOptions::new()));
    assert!(single_hits > 0, "the failpoint never fired");
    let (sharded, sharded_hits) =
        answers_and_block_hits(|| e.run(&qs, &ds, &ExecOptions::new().sharded(4)));
    assert_eq!(sharded_hits, single_hits, "Engine::run");
    assert_eq!(sharded, single);

    // A session caches its index, so compare two fresh sessions.
    let session = || QuerySession::new(engine(2), ds.clone());
    let (plain, session_hits) = answers_and_block_hits(|| session().run(&qs, &ExecOptions::new()));
    let (sharded, sharded_hits) =
        answers_and_block_hits(|| session().run(&qs, &ExecOptions::new().sharded(4)));
    assert_eq!(sharded_hits, session_hits, "QuerySession::run");
    assert_eq!(plain, single);
    assert_eq!(sharded, single);
}

#[test]
fn scheduler_isolates_an_armed_panic_and_counts_it() {
    let _gate = serialised();
    fault::disarm_all();
    let e = engine(2);
    let scheduler = QueryScheduler::new(e.clone());
    let ds = Dataset::from_bytes(bytes(2104, 60), Format::GeoJson);
    let id = scheduler.register(ds.clone());
    let qs = queries(60);
    let oracle: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();

    fault::arm(
        "executor.block",
        FaultAction::Panic("injected wave panic".into()),
    );
    let (results, stats) = scheduler
        .run(id, &qs, &ExecOptions::new().isolated().timed())
        .map(|o| (o.outcomes, o.scheduler.unwrap()))
        .unwrap();
    fault::disarm("executor.block");
    assert_eq!(results.len(), qs.len());
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(QueryError::Panicked(m)) => {
                assert!(m.contains("injected wave panic"), "query {i}: payload {m}")
            }
            other => panic!("query {i}: expected Panicked, got {other:?}"),
        }
    }
    assert_eq!(stats.task_panics, qs.len() as u64);

    // The scheduler entry survives: the disarmed rerun is
    // bit-identical to solo execution.
    assert_eq!(scheduler.execb(id, &qs).unwrap(), oracle);
}

#[test]
fn seeded_probabilistic_panics_either_fail_cleanly_or_match_oracle() {
    let _gate = serialised();
    fault::disarm_all();
    let seed = run_seed("seeded_probabilistic_panics_either_fail_cleanly_or_match_oracle");
    let data = bytes(2105, 40);
    let e = engine(2);
    let q = Query::aggregation(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let oracle = e
        .exec1(&q, &Dataset::from_bytes(data.clone(), Format::GeoJson))
        .unwrap();

    // Streamed regions run through the same block executor as
    // buffered scans, so its failpoint fires inside every streamed
    // block task.
    let injector = FaultInjector::new(seed);
    injector.arm_random_panic("executor.block", 200);
    let mut clean_runs = 0u32;
    let mut panicked_runs = 0u32;
    for _ in 0..12 {
        let mut source = SliceChunkSource::new(&data, 256);
        match e.stream1(&q, &mut source, Format::GeoJson) {
            Ok(result) => {
                assert_eq!(result, oracle);
                clean_runs += 1;
            }
            Err(Error::TaskPanicked(_)) => panicked_runs += 1,
            Err(other) => panic!("unexpected error under injection: {other:?}"),
        }
    }
    fault::disarm("executor.block");
    eprintln!("seed {seed}: {clean_runs} clean runs, {panicked_runs} injected panics");
    // Whatever the split, the engine must end the gauntlet healthy.
    let mut source = SliceChunkSource::new(&data, 256);
    assert_eq!(e.stream1(&q, &mut source, Format::GeoJson).unwrap(), oracle);
}

#[test]
fn cancellation_sweep_with_harness_source_never_hangs() {
    let _gate = serialised();
    let seed = run_seed("cancellation_sweep_with_harness_source_never_hangs");
    let data = bytes(2106, 40);
    let chunk_len = 256;
    let n_chunks = data.len().div_ceil(chunk_len) as u64;
    let e = engine(2);
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let oracle = e
        .exec1(&q, &Dataset::from_bytes(data.clone(), Format::GeoJson))
        .unwrap();

    // Every boundary once, then a handful of random boundaries layered
    // on top of a faulty (retrying) source — the worst case: transient
    // errors and cancellation racing on the same stream.
    let mut rng = FaultInjector::new(seed).rng();
    let deterministic = 0..=n_chunks;
    let randomized = (0..8).map(|_| rng.below(n_chunks + 1));
    let mut cancelled = 0u64;
    for after in deterministic.chain(randomized) {
        let token = CancelToken::new();
        let faulty =
            FaultInjector::new(seed ^ after).faulty_source(SliceChunkSource::new(&data, chunk_len));
        let mut source = CancelAfterChunks::new(faulty, token.clone(), after);
        match e
            .run_streaming(
                std::slice::from_ref(&q),
                &mut source,
                Format::GeoJson,
                &ExecOptions::new().cancellable(&token),
            )
            .and_then(|o| o.into_single())
        {
            Ok(result) => assert_eq!(result, oracle, "boundary {after} (seed {seed})"),
            Err(Error::Cancelled) => cancelled += 1,
            Err(other) => panic!("boundary {after} (seed {seed}): {other:?}"),
        }
    }
    assert!(
        cancelled > 0,
        "sweep observed no cancellation (seed {seed})"
    );
    let mut source = SliceChunkSource::new(&data, chunk_len);
    assert_eq!(e.stream1(&q, &mut source, Format::GeoJson).unwrap(), oracle);
}
