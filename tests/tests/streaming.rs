//! Streaming-differential suite: `Engine::run_streaming` must be
//! **bit-identical** to a buffered `Engine::run` for every format ×
//! execution mode × chunk size — including chunk boundaries that fall
//! inside multi-byte markers, UTF-8 escapes, numbers and XML
//! entities — plus boundary-torture cases (empty final chunk,
//! chunk-per-byte) and the bounded-fragment-memory guarantee. Every
//! buffered reference is itself held to the `atgis_baselines`
//! sequential oracle.

use atgis::stream::SliceChunkSource;
use atgis::{chunk_channel, Dataset, Engine, Query, QueryResult, QuerySession};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;
use atgis_tests::{
    assert_agrees_with_oracle, modes, oracle_answers, RunExt, SessionRunExt, StreamRunExt,
};

fn engine(threads: usize, mode: Mode) -> Engine {
    Engine::builder()
        .threads(threads)
        .mode(mode)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(2.0)
        .build()
}

fn bytes_for(format: Format, seed: u64, n: usize) -> Vec<u8> {
    let ds = OsmGenerator::new(seed).generate(n);
    match format {
        Format::GeoJson => write_geojson(&ds),
        Format::Wkt => write_wkt(&ds),
        Format::OsmXml => write_osm_xml(&ds),
    }
}

fn full_queries(n_objects: u64) -> Vec<Query> {
    vec![
        Query::containment(Mbr::new(-8.0, 44.0, 6.0, 56.0)),
        Query::aggregation(Mbr::new(-11.0, 39.0, 11.0, 61.0)),
        Query::join(n_objects / 2),
        Query::combined(n_objects / 2, 10.0, 1.0e7),
    ]
}

/// The core differential: for each query, a buffered run over the
/// materialised bytes must agree with the sequential oracle and equal
/// a streamed run over the same bytes cut into `chunk_len`-sized
/// chunks, exactly (floats included).
fn assert_streamed_equals_buffered(
    e: &Engine,
    bytes: &[u8],
    format: Format,
    chunk_len: usize,
    queries: &[Query],
    label: &str,
) {
    let ds = Dataset::from_bytes(bytes.to_vec(), format);
    let answers = oracle_answers(&ds, queries);
    for (qi, q) in queries.iter().enumerate() {
        let want = e.exec1(q, &ds).unwrap();
        assert_agrees_with_oracle(
            &answers[qi..=qi],
            std::slice::from_ref(&want),
            &format!("{label} buffered query#{qi}"),
        );
        let mut source = SliceChunkSource::new(bytes, chunk_len);
        let got = e.stream1(q, &mut source, format).unwrap();
        assert_eq!(got, want, "{label} chunk={chunk_len} query#{qi}");
    }
}

#[test]
fn streaming_differential_geojson_across_modes_and_chunks() {
    for &mode in modes(Format::GeoJson) {
        let small = bytes_for(Format::GeoJson, 21, 8);
        for chunk in [1usize, 7] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &small,
                Format::GeoJson,
                chunk,
                &full_queries(8),
                &format!("geojson/{mode:?}"),
            );
        }
        let medium = bytes_for(Format::GeoJson, 22, 80);
        for chunk in [4096usize, 1 << 20] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &medium,
                Format::GeoJson,
                chunk,
                &full_queries(80),
                &format!("geojson/{mode:?}"),
            );
        }
    }
}

#[test]
fn streaming_differential_wkt_across_modes_and_chunks() {
    for &mode in modes(Format::Wkt) {
        let small = bytes_for(Format::Wkt, 23, 8);
        for chunk in [1usize, 7] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &small,
                Format::Wkt,
                chunk,
                &full_queries(8),
                &format!("wkt/{mode:?}"),
            );
        }
        let medium = bytes_for(Format::Wkt, 24, 80);
        for chunk in [4096usize, 1 << 20] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &medium,
                Format::Wkt,
                chunk,
                &full_queries(80),
                &format!("wkt/{mode:?}"),
            );
        }
    }
}

#[test]
fn streaming_differential_xml_across_modes_and_chunks() {
    // XML ingests into the stream buffer and parses at seal (global
    // node table), so the differential here proves the buffering path
    // and chunk reassembly, entity boundaries included.
    for &mode in modes(Format::OsmXml) {
        let small = bytes_for(Format::OsmXml, 25, 8);
        for chunk in [1usize, 7] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &small,
                Format::OsmXml,
                chunk,
                &full_queries(8),
                &format!("xml/{mode:?}"),
            );
        }
        let medium = bytes_for(Format::OsmXml, 26, 60);
        for chunk in [4096usize, 1 << 20] {
            assert_streamed_equals_buffered(
                &engine(2, mode),
                &medium,
                Format::OsmXml,
                chunk,
                &full_queries(60),
                &format!("xml/{mode:?}"),
            );
        }
    }
}

#[test]
fn streaming_batch_differential_across_threads() {
    let bytes = bytes_for(Format::GeoJson, 27, 70);
    let ds = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
    let queries = full_queries(70);
    let answers = oracle_answers(&ds, &queries);
    for threads in [1usize, 2, 8] {
        for mode in [Mode::Pat, Mode::Fat] {
            let e = engine(threads, mode);
            let want = e.execb(&queries, &ds).unwrap();
            assert_agrees_with_oracle(&answers, &want, &format!("threads={threads} mode={mode:?}"));
            let mut source = SliceChunkSource::new(&bytes, 2048);
            let (got, stats, _) = e
                .streamb_timed(&queries, &mut source, Format::GeoJson)
                .unwrap();
            assert_eq!(got, want, "threads={threads} mode={mode:?}");
            assert_eq!(stats.scan_passes, 1);
        }
    }
}

#[test]
fn streamed_fragment_memory_is_bounded_by_workers_not_chunks() {
    // Many chunks (hundreds of regions), few workers: the merger's
    // peak live fragments must track the worker count, not the chunk
    // count — the bounded-memory tentpole claim, observable.
    let bytes = bytes_for(Format::GeoJson, 28, 300);
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    for threads in [1usize, 2, 8] {
        let e = engine(threads, Mode::Pat);
        let mut source = SliceChunkSource::new(&bytes, 1024);
        let (_, _, sstats) = e
            .streamb_timed(std::slice::from_ref(&world), &mut source, Format::GeoJson)
            .unwrap();
        assert!(
            sstats.chunks as usize > 4 * threads,
            "need many more chunks than workers for the bound to mean anything"
        );
        // Bound: one fragment per contiguous run (≤ in-flight tasks
        // + 1) plus one detached fragment per worker mid-merge —
        // O(workers) either way, never O(chunks).
        assert!(
            sstats.peak_fragments <= 2 * threads as u64 + 2,
            "threads={threads}: peak {} fragments for {} chunks / {} regions",
            sstats.peak_fragments,
            sstats.chunks,
            sstats.regions
        );
    }
}

#[test]
fn streaming_channel_feed_with_empty_chunks_and_empty_final_chunk() {
    let bytes = bytes_for(Format::GeoJson, 29, 30);
    let ds = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
    let e = engine(2, Mode::Pat);
    let q = Query::aggregation(Mbr::new(-11.0, 39.0, 11.0, 61.0));
    let want = e.exec1(&q, &ds).unwrap();
    let answers = oracle_answers(&ds, std::slice::from_ref(&q));
    assert_agrees_with_oracle(&answers, std::slice::from_ref(&want), "channel feed");

    let (tx, mut rx) = chunk_channel(4);
    let feed = bytes.clone();
    let producer = std::thread::spawn(move || {
        tx.send(Vec::new()).unwrap(); // leading empty chunk
        for chunk in feed.chunks(997) {
            tx.send(chunk.to_vec()).unwrap();
        }
        tx.send(Vec::new()).unwrap(); // empty chunk exactly at EOF
                                      // dropping tx ends the stream
    });
    let got = e.stream1(&q, &mut rx, Format::GeoJson).unwrap();
    producer.join().unwrap();
    assert_eq!(got, want);
}

#[test]
fn streaming_empty_input_matches_buffered_empty() {
    let e = engine(2, Mode::Pat);
    let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let empty = Dataset::from_bytes(Vec::new(), Format::Wkt);
    let want = e.exec1(&q, &empty).unwrap();
    let answers = oracle_answers(&empty, std::slice::from_ref(&q));
    assert_agrees_with_oracle(&answers, std::slice::from_ref(&want), "empty input");
    let mut source = SliceChunkSource::new(&[], 4);
    let got = e.stream1(&q, &mut source, Format::Wkt).unwrap();
    assert_eq!(got, want);
    assert_eq!(got, QueryResult::Matches(Vec::new()));
}

// ---------------------------------------------------------------------
// Boundary torture: every split point of crafted inputs whose bytes
// contain the structures a chunk boundary could tear apart.
// ---------------------------------------------------------------------

/// Sweeps *every* chunk length over the input, so some chunk boundary
/// lands on every byte position — inside markers, escapes, numbers
/// and entities alike.
fn sweep_all_chunk_lengths(bytes: &[u8], format: Format) {
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let agg = Query::aggregation(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    for &mode in modes(format) {
        let e = engine(2, mode);
        let ds = Dataset::from_bytes(bytes.to_vec(), format);
        let want_w = e.exec1(&world, &ds).unwrap();
        let want_a = e.exec1(&agg, &ds).unwrap();
        assert_agrees_with_oracle(
            &oracle_answers(&ds, &[world.clone(), agg.clone()]),
            &[want_w.clone(), want_a.clone()],
            &format!("{format:?}/{mode:?} buffered"),
        );
        assert!(
            !want_w.matches().is_empty(),
            "torture input must select features ({format:?})"
        );
        sweep_against(&e, bytes, format, [(&world, &want_w), (&agg, &want_a)]);
    }
}

/// The chunk-length sweep of [`sweep_all_chunk_lengths`] against
/// given buffered answers.
fn sweep_against(e: &Engine, bytes: &[u8], format: Format, wants: [(&Query, &QueryResult); 2]) {
    for chunk_len in 1..=bytes.len() {
        for (q, want) in wants {
            let mut s = SliceChunkSource::new(bytes, chunk_len);
            let got = e.stream1(q, &mut s, format).unwrap();
            assert_eq!(&got, want, "{format:?} chunk={chunk_len} {q:?}");
        }
    }
}

#[test]
fn torture_geojson_chunk_splits_inside_utf8_escapes_and_markers() {
    // Properties carry \u escapes, escaped quotes and brace noise; a
    // sweep over every chunk length puts a boundary inside the
    // `{"type":"Feature"` marker, the `é` escape and the
    // coordinate numbers.
    let doc = concat!(
        r#"{"type":"FeatureCollection","features":["#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.25,50.5]},"id":1,"properties":{"name":"café \"bar\" {[,:]}"}},"#,
        r#"{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0.5,49.5],[2.5,49.5],[2.5,51.5],[0.5,51.5],[0.5,49.5]]]},"id":2,"properties":{"note":"ümläut"}},"#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[-3.0e0,5.05E1]},"id":3,"properties":{}}"#,
        r#"]}"#
    )
    .as_bytes()
    .to_vec();
    sweep_all_chunk_lengths(&doc, Format::GeoJson);
}

/// The §3.5 trap: a Feature-shaped object inside feature 1's
/// `properties`.
fn trap_document() -> Vec<u8> {
    concat!(
        r#"{"type":"FeatureCollection","features":["#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"#,
        r#""properties":{"trap":{"type":"Feature","x":1},"name":"decoy"}},"#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[3.0,4.0]},"id":2,"properties":{}}"#,
        r#"]}"#
    )
    .as_bytes()
    .to_vec()
}

#[test]
fn torture_geojson_chunk_splits_around_a_nested_feature_marker() {
    // FAT regions start at every chunk boundary, so some region begins
    // right before the decoy marker; the depth carried across regions
    // keeps it from ever counting as a feature start. PAT cuts at
    // markers, so the decoy is its documented limitation; the
    // sequential oracle lexes the document as one FAT block, and the
    // buffered FAT answer, pinned to the two real features, must
    // agree with it.
    let doc = trap_document();
    let e = engine(2, Mode::Fat);
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let agg = Query::aggregation(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let ds = Dataset::from_bytes(doc.clone(), Format::GeoJson);
    let want_w = e.exec1(&world, &ds).unwrap();
    let want_a = e.exec1(&agg, &ds).unwrap();
    let ids: Vec<u64> = want_w.matches().iter().map(|m| m.id).collect();
    assert_eq!(ids, [1, 2]);
    assert_agrees_with_oracle(
        &oracle_answers(&ds, &[world.clone(), agg.clone()]),
        &[want_w.clone(), want_a.clone()],
        "decoy marker buffered",
    );
    sweep_against(
        &e,
        &doc,
        Format::GeoJson,
        [(&world, &want_w), (&agg, &want_a)],
    );
}

#[test]
fn fat_session_prefixes_end_only_at_real_feature_starts() {
    // The trap fed one byte at a time into a FAT streaming session:
    // every mid-ingest prefix query answers with a prefix of the real
    // features, because the queryable prefix ends only where a feature
    // at the feature depth starts, never at the decoy.
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let ids = |r: QueryResult| r.matches().iter().map(|m| m.id).collect::<Vec<u64>>();
    let mut session = QuerySession::streaming(engine(2, Mode::Fat), Format::GeoJson).unwrap();
    let mut last = Vec::new();
    for (at, byte) in trap_document().iter().enumerate() {
        session.ingest_chunk(std::slice::from_ref(byte)).unwrap();
        last = match session.exec1(&world) {
            Ok(r) => ids(r),
            Err(e) => panic!("prefix query after byte {at}: {e}"),
        };
        assert!([1, 2].starts_with(&last), "after byte {at}: {last:?}");
    }
    assert_eq!(last, [1], "the prefix ends where feature 2 starts");
    session.finish().unwrap();
    assert_eq!(ids(session.exec1(&world).unwrap()), [1, 2]);
}

#[test]
fn torture_wkt_chunk_splits_inside_numbers() {
    // Long fractional digits and exponents: chunk boundaries land
    // inside every number. Rows end without a trailing newline on the
    // final record, so EOF is also a mid-row boundary for the tail.
    let doc = b"1\tPOINT(1.2345678 50.8765432)\t\n\
2\tPOLYGON((0.1234567 49.7654321,2.5 49.5,2.5 51.5,0.1234567 49.7654321))\tname=a\n\
3\tLINESTRING(-1.25 50.125,-0.5 50.5)\t\n\
4\tPOINT(-3.5 50.5)\t"
        .to_vec();
    sweep_all_chunk_lengths(&doc, Format::Wkt);
}

#[test]
fn torture_xml_chunk_splits_inside_entities() {
    // Tag values hold XML entities (&amp; &quot; &lt;); the sweep puts
    // chunk boundaries inside each entity and inside element tags.
    let doc = concat!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
        "<osm version=\"0.6\" generator=\"atgis-datagen\">\n",
        " <node id=\"1000\" lat=\"50.5\" lon=\"1.5\"/>\n",
        " <node id=\"1001\" lat=\"50.625\" lon=\"1.625\"/>\n",
        " <node id=\"1002\" lat=\"50.75\" lon=\"1.5\"/>\n",
        " <node id=\"7\" lat=\"50.9876543\" lon=\"1.1234567\"/>\n",
        " <way id=\"1\"><nd ref=\"1000\"/><nd ref=\"1001\"/><nd ref=\"1002\"/><nd ref=\"1000\"/>",
        "<tag k=\"name\" v=\"caf&amp; &quot;bar&quot; &lt;x\"/></way>\n",
        "</osm>\n"
    )
    .as_bytes()
    .to_vec();
    sweep_all_chunk_lengths(&doc, Format::OsmXml);
}

#[test]
fn torture_eof_exactly_at_marker_boundary() {
    // The stream ends exactly where a new feature marker would start:
    // the PAT tail dispatch must handle a final region that is pure
    // wrapper, and a truncated-free prefix that is the whole input.
    let gen = OsmGenerator::new(31).generate(6);
    let bytes = write_geojson(&gen);
    let e = engine(2, Mode::Pat);
    let ds = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
    let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
    let want = e.exec1(&world, &ds).unwrap();
    let answers = oracle_answers(&ds, std::slice::from_ref(&world));
    assert_agrees_with_oracle(&answers, std::slice::from_ref(&want), "eof at marker");
    // Chunk lengths engineered so chunk boundaries hit every marker
    // position at least once across the runs.
    let marker = b"{\"type\":\"Feature\"";
    let mut marker_positions = Vec::new();
    let mut at = 0usize;
    while let Some(pos) = bytes[at..]
        .windows(marker.len())
        .position(|w| w == marker)
        .map(|p| p + at)
    {
        marker_positions.push(pos);
        at = pos + 1;
    }
    assert!(marker_positions.len() > 3);
    for &pos in &marker_positions[1..] {
        // First chunk ends exactly at the marker start.
        let mut s = TwoChunkSource::new(&bytes, pos);
        let got = e.stream1(&world, &mut s, Format::GeoJson).unwrap();
        assert_eq!(got, want, "split at marker offset {pos}");
    }
}

/// Splits the input at one exact position — chunk one is `[0, split)`,
/// chunk two the rest.
struct TwoChunkSource<'a> {
    data: &'a [u8],
    split: usize,
    state: u8,
}

impl<'a> TwoChunkSource<'a> {
    fn new(data: &'a [u8], split: usize) -> Self {
        TwoChunkSource {
            data,
            split,
            state: 0,
        }
    }
}

impl atgis::ChunkSource for TwoChunkSource<'_> {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        self.state += 1;
        Ok(match self.state {
            1 => Some(self.data[..self.split].to_vec()),
            2 => Some(self.data[self.split..].to_vec()),
            _ => None,
        })
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.data.len())
    }
}

#[test]
fn streaming_file_source_matches_in_memory() {
    let bytes = bytes_for(Format::GeoJson, 33, 50);
    let path =
        std::env::temp_dir().join(format!("atgis_stream_diff_{}.geojson", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let e = engine(2, Mode::Pat);
    let ds = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
    let q = Query::join(25);
    let want = e.exec1(&q, &ds).unwrap();
    let answers = oracle_answers(&ds, std::slice::from_ref(&q));
    assert_agrees_with_oracle(&answers, std::slice::from_ref(&want), "file source");
    let mut source = atgis::FileChunkSource::open_with_chunk_len(&path, 1500).unwrap();
    let got = e.stream1(&q, &mut source, Format::GeoJson).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(got, want);
}
