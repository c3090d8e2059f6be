//! Robustness suite: cooperative cancellation, deadlines, and the
//! per-query failure domain — exercised end to end through the public
//! entry points (`Engine`, `QuerySession`, `QueryScheduler`,
//! streaming). The invariants under test:
//!
//! - a tripped [`CancelToken`] surfaces as structured
//!   `Error::Cancelled` / `Error::DeadlineExceeded`, never a panic, a
//!   hang, or a partial result served as complete;
//! - cancellation observed at any chunk boundary either completes
//!   bit-identically to the oracle or cancels cleanly — no third
//!   outcome;
//! - the engine, its worker pool, and the scheduler stay fully
//!   serviceable after every cancelled, timed-out, or failed batch:
//!   the next identical batch is bit-identical to solo execution;
//! - hostile bytes at the OSM-XML boundary — a document truncated at
//!   any offset, seeded bit flips (replay with `ATGIS_FAULT_SEED`) —
//!   parse to `Ok` or a structured `ParseError`, never a panic or a
//!   hang;
//! - the same hostile bytes through FAT GeoJSON, at any block count,
//!   give a structured error or exactly the 1-block answer, and
//!   through WKT's newline split the 1-block answer or error;
//! - generated GeoJSON, truncated or bit-flipped, through PAT at any
//!   block count gives the one-block `fast::parse_block` answer or a
//!   parse error;
//! - every hostile document streamed in 7- and 61-byte chunks gives
//!   the buffered answer, or a parse error where buffering gives one.

use atgis::pipeline::{ContainmentAgg, QueryAggregate};
use atgis::stream::ChunkSource;
use atgis::{
    chunk_channel, CancelToken, Dataset, Engine, Error, ExecOptions, Query, QueryError,
    QueryResult, QueryScheduler, QuerySession, SliceChunkSource,
};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{geojson, osmxml, wkt, Format, MetadataFilter, Mode, RawFeature};
use atgis_geometry::{Mbr, Polygon};
use atgis_tests::{RunExt, SchedRunExt, SessionRunExt, StreamRunExt, XorShift64};

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

/// Wraps a [`ChunkSource`] and trips the token just before chunk
/// `after` is handed out — the feature-independent twin of the
/// fault-injection harness's `CancelAfterChunks`, so the
/// every-boundary sweep also runs in default builds.
struct CancelAt<S> {
    inner: S,
    token: CancelToken,
    after: u64,
    served: u64,
}

impl<S: ChunkSource> ChunkSource for CancelAt<S> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        if self.served == self.after {
            self.token.cancel();
        }
        self.served += 1;
        self.inner.next_chunk()
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

#[test]
fn pre_cancelled_batch_errors_and_engine_serves_the_next_one() {
    let e = engine(2);
    let ds = Dataset::from_bytes(bytes(1201, 60), Format::GeoJson);
    let qs = queries(60);
    let token = CancelToken::new();
    token.cancel();
    match e
        .run(&qs, &ds, &ExecOptions::new().cancellable(&token))
        .and_then(|o| o.collapse())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Same engine, same pool: the rerun is bit-identical to solo.
    let want: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();
    assert_eq!(
        e.run(
            &qs,
            &ds,
            &ExecOptions::new().cancellable(&CancelToken::new())
        )
        .and_then(|o| o.collapse())
        .unwrap(),
        want
    );
}

#[test]
fn elapsed_deadline_is_its_own_error() {
    let e = engine(2);
    let ds = Dataset::from_bytes(bytes(1202, 60), Format::GeoJson);
    let token = CancelToken::with_deadline(std::time::Duration::ZERO);
    match e
        .run(&queries(60), &ds, &ExecOptions::new().cancellable(&token))
        .and_then(|o| o.collapse())
    {
        Err(Error::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // Explicit cancellation outranks an elapsed deadline.
    token.cancel();
    match e
        .run(&queries(60), &ds, &ExecOptions::new().cancellable(&token))
        .and_then(|o| o.collapse())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
}

#[test]
fn isolated_batch_is_all_ok_and_identical_when_nothing_fails() {
    let e = engine(2);
    let ds = Dataset::from_bytes(bytes(1203, 60), Format::GeoJson);
    let qs = queries(60);
    let want: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();
    let isolated = e
        .run(&qs, &ds, &ExecOptions::new().isolated())
        .unwrap()
        .outcomes;
    let got: Vec<QueryResult> = isolated.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, want);
}

#[test]
fn streaming_cancellation_stops_between_chunks() {
    // The consumer checks the token once per chunk: a token cancelled
    // after chunk 3 must surface Cancelled without draining the rest
    // of the stream, even though the producer keeps sending.
    let data = bytes(1204, 80);
    let e = engine(2);
    let token = CancelToken::new();
    let mut source = CancelAt {
        inner: SliceChunkSource::new(&data, 512),
        token: token.clone(),
        after: 3,
        served: 0,
    };
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    match e
        .run_streaming(
            std::slice::from_ref(&q),
            &mut source,
            Format::GeoJson,
            &ExecOptions::new().cancellable(&token),
        )
        .and_then(|o| o.into_single())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The engine still streams the full dataset afterwards.
    let ds = Dataset::from_bytes(data.clone(), Format::GeoJson);
    let want = e.exec1(&q, &ds).unwrap();
    let mut clean = SliceChunkSource::new(&data, 512);
    assert_eq!(
        e.run_streaming(
            std::slice::from_ref(&q),
            &mut clean,
            Format::GeoJson,
            &ExecOptions::new(),
        )
        .and_then(|o| o.into_single())
        .unwrap(),
        want
    );
}

#[test]
fn cancellation_at_every_chunk_boundary_is_clean() {
    // Sweep the cancellation point across every chunk boundary of the
    // stream: each run must either complete bit-identically to the
    // buffered oracle or return Cancelled — never hang, panic, or
    // return a silently truncated result.
    let data = bytes(1205, 40);
    let chunk_len = 256;
    let n_chunks = data.len().div_ceil(chunk_len) as u64;
    let e = engine(2);
    let q = Query::aggregation(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let oracle = e
        .exec1(&q, &Dataset::from_bytes(data.clone(), Format::GeoJson))
        .unwrap();
    let mut cancelled = 0u64;
    for after in 0..=n_chunks {
        let token = CancelToken::new();
        let mut source = CancelAt {
            inner: SliceChunkSource::new(&data, chunk_len),
            token: token.clone(),
            after,
            served: 0,
        };
        match e
            .run_streaming(
                std::slice::from_ref(&q),
                &mut source,
                Format::GeoJson,
                &ExecOptions::new().cancellable(&token),
            )
            .and_then(|o| o.into_single())
        {
            Ok(result) => assert_eq!(result, oracle, "boundary {after}: wrong result"),
            Err(Error::Cancelled) => cancelled += 1,
            Err(other) => panic!("boundary {after}: unexpected error {other:?}"),
        }
    }
    assert!(cancelled > 0, "the sweep never observed a cancellation");
    // The pool survived every aborted run.
    let mut clean = SliceChunkSource::new(&data, chunk_len);
    assert_eq!(
        e.run_streaming(
            std::slice::from_ref(&q),
            &mut clean,
            Format::GeoJson,
            &ExecOptions::new(),
        )
        .and_then(|o| o.into_single())
        .unwrap(),
        oracle
    );
}

#[test]
fn channel_fed_stream_honours_cancellation_while_producer_blocks() {
    // A bounded channel with a slow consumer: cancel mid-stream and
    // the consumer must exit promptly (freeing the channel) instead of
    // deadlocking against a blocked producer.
    let data = bytes(1206, 60);
    let e = engine(2);
    let token = CancelToken::new();
    let (tx, mut rx) = chunk_channel(1);
    let producer = {
        let data = data.clone();
        std::thread::spawn(move || {
            for chunk in data.chunks(128) {
                if tx.send(chunk.to_vec()).is_err() {
                    return; // consumer hung up — expected on cancel
                }
            }
        })
    };
    token.cancel();
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    match e
        .run_streaming(
            std::slice::from_ref(&q),
            &mut rx,
            Format::GeoJson,
            &ExecOptions::new().cancellable(&token),
        )
        .and_then(|o| o.into_single())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    drop(rx);
    producer.join().expect("producer must not deadlock");
}

#[test]
fn scheduler_counts_cancellations_and_stays_serviceable() {
    let e = engine(2);
    let scheduler = QueryScheduler::new(e.clone());
    let ds = Dataset::from_bytes(bytes(1207, 60), Format::GeoJson);
    let id = scheduler.register(ds.clone());
    let qs = queries(60);

    let token = CancelToken::new();
    token.cancel();
    let (results, stats) = scheduler
        .run(
            id,
            &qs,
            &ExecOptions::new().isolated().timed().cancellable(&token),
        )
        .map(|o| (o.outcomes, o.scheduler.unwrap()))
        .unwrap();
    assert_eq!(results.len(), qs.len());
    for r in &results {
        assert!(
            matches!(r, Err(QueryError::Cancelled)),
            "pre-cancelled batch must fail every member: {r:?}"
        );
    }
    assert_eq!(stats.cancelled, qs.len() as u64);
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.task_panics, 0);

    // Deadline flavour.
    let strict = CancelToken::with_deadline(std::time::Duration::ZERO);
    let (results, stats) = scheduler
        .run(
            id,
            &qs,
            &ExecOptions::new().isolated().timed().cancellable(&strict),
        )
        .map(|o| (o.outcomes, o.scheduler.unwrap()))
        .unwrap();
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(QueryError::DeadlineExceeded))));
    assert_eq!(stats.deadline_exceeded, qs.len() as u64);

    // The collapsing entry point maps the same condition to the
    // structured batch error.
    let again = CancelToken::new();
    again.cancel();
    match scheduler
        .run(id, &qs, &ExecOptions::new().cancellable(&again))
        .and_then(|o| o.collapse())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // And after all that abuse the scheduler still serves the batch
    // bit-identically to solo execution.
    let want: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();
    assert_eq!(scheduler.execb(id, &qs).unwrap(), want);
    let stats = scheduler.stats_probe(id, &qs);
    assert_eq!(stats.cancelled, 0);
}

/// Small extension trait so the test above can read a clean-run
/// counter without caring about the tuple shape.
trait StatsProbe {
    fn stats_probe(&self, id: atgis::DatasetId, qs: &[Query]) -> atgis::SchedulerStats;
}

impl StatsProbe for QueryScheduler {
    fn stats_probe(&self, id: atgis::DatasetId, qs: &[Query]) -> atgis::SchedulerStats {
        self.execb_timed(id, qs).unwrap().1
    }
}

#[test]
fn streaming_session_misuse_is_invalid_state_not_a_panic() {
    let mut session = QuerySession::streaming(engine(2), Format::GeoJson).unwrap();
    let data = bytes(1208, 40);
    for chunk in data.chunks(512) {
        session.ingest_chunk(chunk).unwrap();
    }
    // Join-class queries need the sealed index.
    match session.exec1(&Query::join(20)) {
        Err(Error::InvalidState(_)) => {}
        other => panic!("expected InvalidState, got {other:?}"),
    }
    session.finish().unwrap();
    // Ingest-after-seal and double-finish are lifecycle errors too.
    assert!(matches!(
        session.ingest_chunk(b"{}"),
        Err(Error::InvalidState(_))
    ));
    assert!(matches!(session.finish(), Err(Error::InvalidState(_))));
    // After the misuse the session still answers correctly.
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let want = engine(2)
        .exec1(&q, &Dataset::from_bytes(data, Format::GeoJson))
        .unwrap();
    assert_eq!(session.exec1(&q).unwrap(), want);
}

#[test]
fn session_cancellable_batch_round_trip() {
    let e = engine(2);
    let ds = Dataset::from_bytes(bytes(1209, 50), Format::GeoJson);
    let qs = queries(50);
    let want: Vec<QueryResult> = qs.iter().map(|q| e.exec1(q, &ds).unwrap()).collect();
    let session = QuerySession::new(e, ds);
    let token = CancelToken::new();
    token.cancel();
    match session
        .run(&qs, &ExecOptions::new().cancellable(&token))
        .and_then(|o| o.collapse())
    {
        Err(Error::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_eq!(
        session
            .run(&qs, &ExecOptions::new().cancellable(&CancelToken::new()))
            .unwrap()
            .collapse()
            .unwrap(),
        want
    );
}

/// A small OSM-XML document with every construct the scanner knows:
/// declaration, DOCTYPE, comment, nodes with extra attributes, multi-
/// line ways with tags, and a relation — followed by generated data.
fn hostile_xml_seed_document() -> Vec<u8> {
    let mut doc = br#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE osm SYSTEM "osm.dtd">
<!-- hand-written head -->
<osm version="0.6">
 <node id="1" version="2" user="a > b" lat="0.0" lon="0.0"/>
 <node id="2" lat="0.0" lon="1.0"/>
 <node id="3" lat="1.0" lon="1.0"><tag k="name" v="corner"/></node>
 <way id="10">
  <nd ref="1"/>
  <nd ref="2"/>
  <nd ref="3"/>
  <nd ref="1"/>
  <tag k="building" v="yes"/>
 </way>
 <relation id="20"><member type="way" ref="10" role="outer"/><tag k="type" v="multipolygon"/></relation>
"#
    .to_vec();
    let generated = write_osm_xml(&OsmGenerator::new(77).generate(6));
    let body = generated
        .windows(5)
        .position(|w| w == b"<node")
        .expect("generated nodes");
    doc.extend_from_slice(&generated[body..]);
    doc
}

/// Engines cutting an XML document into 16 (2 threads × 8), 2 and 1
/// blocks.
fn xml_engines() -> [Engine; 3] {
    let build = |threads, blocks| {
        Engine::builder()
            .threads(threads)
            .block_multiplier(blocks)
            .build()
    };
    [build(2, 8), build(2, 1), build(1, 1)]
}

/// Every way into the XML layer a caller has: the whole-document
/// parse (with and without a tag filter, which reads the borrowed tag
/// spans), the collector started at an arbitrary offset as a block
/// would be, and the block-parallel engine path at 16, 2 and 1
/// blocks, which must give the same answer or all a parse error.
fn parse_xml_everywhere(engines: &[Engine; 3], bytes: &[u8], what: &str) {
    let building = MetadataFilter::KeyEquals {
        key: "building".into(),
        value: "yes".into(),
    };
    for filter in [MetadataFilter::All, building] {
        // `Ok` or `Err(ParseError)`: returning at all is the assertion.
        let _ = osmxml::parse(bytes, &filter);
    }
    let _ = osmxml::collect_block(bytes, bytes.len() / 3, bytes.len() * 2 / 3);
    // A panic on a pool worker would come back as `TaskPanicked`.
    let dataset = Dataset::from_bytes(bytes.to_vec(), Format::OsmXml);
    let buffered = engines[0].exec1(&world_query(), &dataset);
    match &buffered {
        Ok(_) | Err(Error::Parse(_)) => {}
        Err(other) => panic!("{what}: neither an answer nor a parse error: {other}"),
    }
    for (engine, blocks) in engines[1..].iter().zip([2, 1]) {
        match (engine.exec1(&world_query(), &dataset), &buffered) {
            (Ok(got), Ok(want)) => {
                assert_eq!(&got, want, "{what}: {blocks} blocks answered unlike 16")
            }
            (Err(Error::Parse(_)), Err(Error::Parse(_))) => {}
            (got, want) => panic!("{what}: {blocks} blocks gave {got:?}, 16 gave {want:?}"),
        }
    }
    assert_streams_like(&engines[0], bytes, Format::OsmXml, &buffered, what);
}

fn world_query() -> Query {
    Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0))
}

/// `bytes` through `Engine::run_streaming` at chunk lengths 7 and 61:
/// each streamed answer equals the `buffered` one, or both are parse
/// errors.
fn assert_streams_like(
    engine: &Engine,
    bytes: &[u8],
    format: Format,
    buffered: &Result<QueryResult, Error>,
    what: &str,
) {
    for chunk_len in [7, 61] {
        let mut source = SliceChunkSource::new(bytes, chunk_len);
        match (
            engine.stream1(&world_query(), &mut source, format),
            buffered,
        ) {
            (Ok(got), Ok(want)) => assert_eq!(
                &got, want,
                "{what}: streamed in {chunk_len}-byte chunks unlike buffered"
            ),
            (Err(Error::Parse(_)), Err(Error::Parse(_))) => {}
            (got, want) => panic!(
                "{what}: streamed in {chunk_len}-byte chunks gave {got:?}, buffered gave {want:?}"
            ),
        }
    }
}

#[test]
fn xml_truncated_at_every_offset_is_ok_or_a_parse_error() {
    let doc = hostile_xml_seed_document();
    assert!(
        !osmxml::parse(&doc, &MetadataFilter::All)
            .unwrap()
            .is_empty(),
        "the untruncated document parses"
    );
    let engines = xml_engines();
    for cut in 0..doc.len() {
        parse_xml_everywhere(&engines, &doc[..cut], &format!("truncated at {cut}"));
    }
}

#[test]
fn xml_with_seeded_bit_flips_is_ok_or_a_parse_error() {
    let doc = hostile_xml_seed_document();
    let mut rng = XorShift64::from_env();
    let engines = xml_engines();
    for _ in 0..64 {
        let mut bytes = doc.clone();
        // One to three flips, so that some land in the same element.
        let mut flipped = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (at, bit) = (rng.below(bytes.len()), rng.below(8));
            bytes[at] ^= 1 << bit;
            flipped.push((at, bit));
        }
        parse_xml_everywhere(
            &engines,
            &bytes,
            &format!("flipped (offset, bit) {flipped:?}"),
        );
    }
}

/// Two flips that once made the answer depend on the block count: at
/// offset 4802 `</way>` becomes `</vay>`, leaving the way unclosed, and
/// at 4805 its `>` becomes `?`. Either way the next `<way` was read as
/// the broken way's child when both fell in one block, and as its own
/// record otherwise. Both are parse errors now, at every block count
/// and streamed.
#[test]
fn xml_unclosed_way_is_a_parse_error_at_every_block_count() {
    let doc = hostile_xml_seed_document();
    let engines = xml_engines();
    for at in [4802, 4805] {
        let mut bytes = doc.clone();
        bytes[at] ^= 1;
        let what = format!("bit 0 flipped at {at}");
        assert!(
            osmxml::parse(&bytes, &MetadataFilter::All).is_err(),
            "{what}: the document parse must fail"
        );
        let dataset = Dataset::from_bytes(bytes.clone(), Format::OsmXml);
        for engine in &engines {
            let got = engine.exec1(&world_query(), &dataset);
            assert!(matches!(got, Err(Error::Parse(_))), "{what}: {got:?}");
        }
        for chunk_len in [7, 61] {
            let mut source = SliceChunkSource::new(&bytes, chunk_len);
            let got = engines[0].stream1(&world_query(), &mut source, Format::OsmXml);
            assert!(
                matches!(got, Err(Error::Parse(_))),
                "{what}: streamed in {chunk_len}-byte chunks gave {got:?}"
            );
        }
    }
}

/// A small GeoJSON document for the FAT sweeps: generated features
/// behind a hand-written one whose properties hold escapes, brackets
/// in strings and a Feature-shaped object.
fn hostile_geojson_seed_document() -> Vec<u8> {
    let generated = write_geojson(&OsmGenerator::new(78).generate(5));
    let first = generated
        .windows(geojson::FEATURE_MARKER.len())
        .position(|w| w == geojson::FEATURE_MARKER)
        .expect("generated features");
    let mut doc = generated[..first].to_vec();
    doc.extend_from_slice(
        br#"{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,0.0]]]},"id":7,"properties":{"name":"say \"{[\\\" ]}","trap":{"type":"Feature","x":[1,{"y":2}]}}},"#,
    );
    doc.extend_from_slice(&generated[first..]);
    doc
}

/// FAT GeoJSON through the library parse at blocks {1, 3, 8} and the
/// engine at 2 threads × 8 blocks: every answer is a structured error
/// or equals the 1-block answer.
fn parse_geojson_fat_everywhere(engine: &Engine, single: &Engine, bytes: &[u8], what: &str) {
    let all = MetadataFilter::All;
    let reference = geojson::parse_fat(bytes, &all, 1);
    for blocks in [3, 8] {
        if let Ok(features) = geojson::parse_fat(bytes, &all, blocks) {
            assert_eq!(
                Ok(&features),
                reference.as_ref(),
                "{what}: {blocks} blocks answered unlike 1 block"
            );
        }
    }
    let dataset = Dataset::from_bytes(bytes.to_vec(), Format::GeoJson);
    let world = world_query();
    let buffered = engine.exec1(&world, &dataset);
    match &buffered {
        Ok(got) => match single.exec1(&world, &dataset) {
            Ok(want) => assert_eq!(got, &want, "{what}: 16 blocks answered unlike 1 block"),
            Err(e) => panic!("{what}: 16 blocks answered, 1 block failed: {e}"),
        },
        Err(Error::Parse(_)) => {}
        Err(other) => panic!("{what}: neither an answer nor a parse error: {other}"),
    }
    assert_streams_like(engine, bytes, Format::GeoJson, &buffered, what);
}

/// GeoJSON engines in `mode`: 2 threads × 8 blocks, and 1 × 1.
fn geojson_engines(mode: Mode) -> (Engine, Engine) {
    let build = |threads, blocks| {
        Engine::builder()
            .threads(threads)
            .block_multiplier(blocks)
            .mode(mode)
            .build()
    };
    (build(2, 8), build(1, 1))
}

#[test]
fn geojson_fat_truncated_at_every_offset_is_exact_or_an_error() {
    let doc = hostile_geojson_seed_document();
    let whole = geojson::parse_fat(&doc, &MetadataFilter::All, 1).unwrap();
    assert_eq!(whole.len(), 6, "the untruncated document parses");
    let (engine, single) = geojson_engines(Mode::Fat);
    for cut in 0..doc.len() {
        parse_geojson_fat_everywhere(
            &engine,
            &single,
            &doc[..cut],
            &format!("truncated at {cut}"),
        );
    }
}

#[test]
fn geojson_fat_with_seeded_bit_flips_is_exact_or_an_error() {
    let doc = hostile_geojson_seed_document();
    let mut rng = XorShift64::from_env();
    let (engine, single) = geojson_engines(Mode::Fat);
    for _ in 0..64 {
        let mut bytes = doc.clone();
        let mut flipped = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (at, bit) = (rng.below(bytes.len()), rng.below(8));
            bytes[at] ^= 1 << bit;
            flipped.push((at, bit));
        }
        parse_geojson_fat_everywhere(
            &engine,
            &single,
            &bytes,
            &format!("flipped (offset, bit) {flipped:?}"),
        );
    }
}

/// A small generated GeoJSON document for the PAT sweeps: no decoy
/// markers, which PAT does not claim to handle (§3.5).
fn hostile_geojson_pat_document() -> Vec<u8> {
    write_geojson(&OsmGenerator::new(80).generate(6))
}

/// The world containment answer built from features the way the
/// engine's sink builds it.
fn world_matches(world: Mbr, features: &[RawFeature]) -> QueryResult {
    let mut agg = ContainmentAgg::new(std::sync::Arc::new(Polygon::from_mbr(&world)));
    for f in features {
        agg.absorb(f);
    }
    QueryResult::Matches(agg.matches)
}

/// PAT GeoJSON through the engine at 2 threads × 8 blocks and at
/// 1 × 1, against `fast::parse_block` over the whole input: each
/// engine answer equals the one-block parse, or is a parse error.
fn parse_geojson_pat_everywhere(engine: &Engine, single: &Engine, bytes: &[u8], what: &str) {
    let world = Mbr::new(-180.0, -90.0, 180.0, 90.0);
    let mut features = Vec::new();
    let reference =
        geojson::fast::parse_block(bytes, 0, bytes.len(), &MetadataFilter::All, &mut features)
            .map(|()| world_matches(world, &features));
    let dataset = Dataset::from_bytes(bytes.to_vec(), Format::GeoJson);
    for (engine, name) in [(engine, "2 threads x 8 blocks"), (single, "1 x 1")] {
        match engine.exec1(&Query::containment(world), &dataset) {
            Ok(got) => match &reference {
                Ok(want) => assert_eq!(&got, want, "{what}: {name} answered unlike parse_block"),
                Err(e) => panic!("{what}: {name} answered, parse_block failed: {e}"),
            },
            Err(Error::Parse(_)) => {}
            Err(other) => {
                panic!("{what}: {name} gave neither an answer nor a parse error: {other}")
            }
        }
    }
    let buffered = engine.exec1(&Query::containment(world), &dataset);
    assert_streams_like(engine, bytes, Format::GeoJson, &buffered, what);
}

#[test]
fn geojson_pat_truncated_at_every_offset_is_exact_or_an_error() {
    let doc = hostile_geojson_pat_document();
    let (engine, single) = geojson_engines(Mode::Pat);
    for cut in 0..doc.len() {
        parse_geojson_pat_everywhere(
            &engine,
            &single,
            &doc[..cut],
            &format!("truncated at {cut}"),
        );
    }
    // The whole document answers.
    let dataset = Dataset::from_bytes(doc.clone(), Format::GeoJson);
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    assert!(!engine.exec1(&world, &dataset).unwrap().matches().is_empty());
}

#[test]
fn geojson_pat_with_seeded_bit_flips_is_exact_or_an_error() {
    let doc = hostile_geojson_pat_document();
    let mut rng = XorShift64::from_env();
    let (engine, single) = geojson_engines(Mode::Pat);
    for _ in 0..64 {
        let mut bytes = doc.clone();
        let mut flipped = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (at, bit) = (rng.below(bytes.len()), rng.below(8));
            bytes[at] ^= 1 << bit;
            flipped.push((at, bit));
        }
        parse_geojson_pat_everywhere(
            &engine,
            &single,
            &bytes,
            &format!("flipped (offset, bit) {flipped:?}"),
        );
    }
}

/// A small WKT document for the hostile sweeps: hand-written rows with
/// a holed polygon, an empty line and nested collections, then
/// generated rows.
fn hostile_wkt_seed_document() -> Vec<u8> {
    let mut doc = concat!(
        "1001\tPOLYGON((0.0 0.0,4.0 0.0,4.0 4.0,0.0 4.0,0.0 0.0),(1.0 1.0,2.0 1.0,2.0 2.0,1.0 1.0))\tname=holed;building=yes\n",
        "\n",
        "1002\tGEOMETRYCOLLECTION(POINT(9.0 9.0),GEOMETRYCOLLECTION(LINESTRING(1.5e0 -2.5E-1,3 4)))\tnote=a=b\n",
    )
    .as_bytes()
    .to_vec();
    doc.extend_from_slice(&write_wkt(&OsmGenerator::new(79).generate(5)));
    doc
}

/// WKT through the library parse, then the engine at 2 threads × 8
/// blocks against 1 thread × 1 block: both answer alike, or both fail
/// with a parse error.
fn parse_wkt_everywhere(engine: &Engine, single: &Engine, bytes: &[u8], what: &str) {
    let parsed = wkt::parse_pat(bytes, &MetadataFilter::All);
    let dataset = Dataset::from_bytes(bytes.to_vec(), Format::Wkt);
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let want = single.exec1(&world, &dataset);
    assert_eq!(
        parsed.is_ok(),
        want.is_ok(),
        "{what}: the 1-block engine and the library parse disagree"
    );
    let buffered = engine.exec1(&world, &dataset);
    match (&buffered, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, &want, "{what}: 16 blocks answered unlike 1 block"),
        (Err(Error::Parse(_)), Err(Error::Parse(_))) => {}
        (got, want) => panic!("{what}: 16 blocks gave {got:?}, 1 block gave {want:?}"),
    }
    assert_streams_like(engine, bytes, Format::Wkt, &buffered, what);
}

fn wkt_engines() -> (Engine, Engine) {
    let build = |threads, blocks| {
        Engine::builder()
            .threads(threads)
            .block_multiplier(blocks)
            .build()
    };
    (build(2, 8), build(1, 1))
}

#[test]
fn wkt_truncated_at_every_offset_is_exact_or_an_error() {
    let doc = hostile_wkt_seed_document();
    let whole = wkt::parse_pat(&doc, &MetadataFilter::All).unwrap();
    assert_eq!(whole.len(), 7, "the untruncated document parses");
    let (engine, single) = wkt_engines();
    for cut in 0..doc.len() {
        parse_wkt_everywhere(
            &engine,
            &single,
            &doc[..cut],
            &format!("truncated at {cut}"),
        );
    }
}

#[test]
fn wkt_with_seeded_bit_flips_is_exact_or_an_error() {
    let doc = hostile_wkt_seed_document();
    let mut rng = XorShift64::from_env();
    let (engine, single) = wkt_engines();
    for _ in 0..64 {
        let mut bytes = doc.clone();
        let mut flipped = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let (at, bit) = (rng.below(bytes.len()), rng.below(8));
            bytes[at] ^= 1 << bit;
            flipped.push((at, bit));
        }
        parse_wkt_everywhere(
            &engine,
            &single,
            &bytes,
            &format!("flipped (offset, bit) {flipped:?}"),
        );
    }
}
