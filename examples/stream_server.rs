//! `stream_server` — serving queries while the dataset is still
//! arriving.
//!
//! Simulates a network feed delivering a GeoJSON dataset in chunks
//! (producer thread + bounded channel back-pressure) into a streaming
//! [`QuerySession`]:
//!
//! 1. while chunks arrive, the server answers **single-pass** queries
//!    (containment / aggregation) over the feature-complete prefix
//!    ingested so far — no waiting for the full file;
//! 2. a partition sink rides the incremental scan, so when the feed
//!    ends, `finish()` seals the join index *without re-reading a
//!    byte*;
//! 3. after sealing, **join-class** traffic is served from the warm
//!    index cache (zero parse passes), exactly like a pinned session.
//!
//! A second act runs the one-shot pipeline — `Engine::run_streaming`
//! over a file source — and checks it against buffered execution.

use atgis::{chunk_channel, Dataset, Engine, ExecOptions, Query, QuerySession};
use atgis_datagen::{write_geojson, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use std::time::Instant;

fn main() {
    let objects = 4000usize;
    let gen = OsmGenerator::new(2026).generate(objects);
    let bytes = write_geojson(&gen);
    let threshold = (objects / 2) as u64;
    println!(
        "stream_server: {} objects, {:.1} MB GeoJSON feed",
        objects,
        bytes.len() as f64 / (1024.0 * 1024.0)
    );

    let engine = Engine::builder()
        .threads(0) // match the machine
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0)
        .build();

    // ---- Act 1: a live feed into a streaming session ----
    let mut session =
        QuerySession::streaming(engine.clone(), Format::GeoJson).expect("open streaming session");
    let (tx, mut rx) = chunk_channel(8);
    let feed = bytes.clone();
    let producer = std::thread::spawn(move || {
        for chunk in feed.chunks(64 * 1024) {
            if tx.send(chunk.to_vec()).is_err() {
                return;
            }
        }
    });

    let region = Query::containment(Mbr::new(-10.0, 40.0, 0.0, 50.0));
    let started = Instant::now();
    let mut ticks = 0u32;
    use atgis::ChunkSource as _;
    while let Some(chunk) = rx.next_chunk().expect("feed chunk") {
        session.ingest_chunk(&chunk).expect("ingest");
        ticks += 1;
        // Every few chunks, a tenant queries the prefix served so far.
        if ticks.is_multiple_of(8) {
            let r = session
                .run(std::slice::from_ref(&region), &ExecOptions::new())
                .and_then(|o| o.into_single())
                .expect("prefix query");
            println!(
                "  t+{:>6.1?}: {:>7} bytes ingested ({:>5.1}% queryable), prefix matches: {}",
                started.elapsed(),
                session.ingested_len(),
                100.0 * session.dataset().len() as f64 / bytes.len() as f64,
                r.matches().len()
            );
        }
    }
    producer.join().expect("producer");

    // Joins are refused until the stream seals.
    assert!(
        session
            .run(&[Query::join(threshold)], &ExecOptions::new())
            .is_err(),
        "join before finish must be refused"
    );
    let stats = session.finish().expect("seal session");
    println!(
        "sealed after {:?}: {} chunks, {} scan blocks, peak {} fragments in flight",
        started.elapsed(),
        stats.chunks,
        stats.regions,
        stats.peak_fragments
    );

    // Join traffic now runs from the warm index: zero parse passes.
    let out = session
        .run(
            &[
                Query::join(threshold),
                Query::combined(threshold, 10.0, 1.0e7),
            ],
            &ExecOptions::new().timed(),
        )
        .expect("sealed joins");
    let jstats = out.batch.clone().expect("timed run reports stats");
    let results = out.collapse().expect("sealed joins");
    println!(
        "sealed join batch: {} pairs, {} parse passes (index sealed by ingest)",
        results[0].joined().len(),
        jstats.scan_passes
    );
    assert_eq!(
        jstats.scan_passes, 0,
        "sealed index must serve joins scan-free"
    );

    // The sealed session is bit-identical to buffered execution.
    let reference = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
    let want = engine
        .run(&[Query::join(threshold)], &reference, &ExecOptions::new())
        .and_then(|o| o.into_single())
        .expect("buffered reference");
    assert_eq!(results[0], want, "streamed session ≡ buffered execution");

    // ---- Act 2: one-shot streaming execution from a file ----
    let path =
        std::env::temp_dir().join(format!("atgis_stream_server_{}.json", std::process::id()));
    std::fs::write(&path, &bytes).expect("spill feed");
    let queries = vec![
        Query::containment(Mbr::new(-10.0, 40.0, 0.0, 50.0)),
        Query::aggregation(Mbr::new(-10.0, 40.0, 0.0, 50.0)),
        Query::join(threshold),
    ];
    let mut source =
        atgis::FileChunkSource::open_with_chunk_len(&path, 1 << 20).expect("open feed file");
    let started = Instant::now();
    let out = engine
        .run_streaming(
            &queries,
            &mut source,
            Format::GeoJson,
            &ExecOptions::new().timed(),
        )
        .expect("one-shot streamed batch");
    let bstats = out.batch.clone().expect("timed run reports stats");
    let sstats = out.stream.clone().expect("stream stats");
    let streamed = out.collapse().expect("one-shot streamed batch");
    let elapsed = started.elapsed();
    let buffered: Vec<_> = queries
        .iter()
        .map(|q| {
            engine
                .run(std::slice::from_ref(q), &reference, &ExecOptions::new())
                .and_then(|o| o.into_single())
                .expect("buffered")
        })
        .collect();
    assert_eq!(streamed, buffered, "one-shot streamed ≡ buffered");
    std::fs::remove_file(&path).ok();
    println!(
        "one-shot streamed batch: {} queries in {:?} ({:.1} MB/s aggregate, {} pass, ingest wait {:?})",
        queries.len(),
        elapsed,
        (bytes.len() * queries.len()) as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64(),
        bstats.scan_passes,
        sstats.ingest_wait,
    );
    println!("stream_server: all invariants held");
}
