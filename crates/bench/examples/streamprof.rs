//! Ad-hoc phase breakdown for the streamed vs buffered join (run
//! manually: `cargo run --release -p atgis-bench --example streamprof`).

use atgis::{Dataset, Engine, ExecOptions, FileChunkSource, Query};
use atgis_bench::{RunExt, StreamRunExt, Workload};
use atgis_formats::Format;
use std::time::Instant;

fn main() {
    let w = Workload::build(atgis_bench::scaled(1500));
    let bytes = w.osm_g.bytes().to_vec();
    println!("input: {} bytes", bytes.len());
    let path =
        std::env::temp_dir().join(format!("atgis_streamprof_{}.geojson", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let engine = Engine::builder().threads(2).build();
    let threshold = (w.objects / 2) as u64;
    let join = Query::join(threshold);
    let mb = bytes.len() as f64 / 1e6;

    for _ in 0..3 {
        let ds = Dataset::from_file(&path, Format::GeoJson).unwrap();
        engine.exec1(&join, &ds).unwrap();
    }

    let iters = 20;
    let t = Instant::now();
    for _ in 0..iters {
        let ds = Dataset::from_file(&path, Format::GeoJson).unwrap();
        engine.exec1(&join, &ds).unwrap();
    }
    let per = t.elapsed().as_secs_f64() / iters as f64;
    println!("buffered: {:7.1} MB/s", mb / per);
    {
        let ds = Dataset::from_file(&path, Format::GeoJson).unwrap();
        let out = engine
            .run(
                std::slice::from_ref(&join),
                &ds,
                &ExecOptions::new().timed(),
            )
            .unwrap();
        let es = out.batch.expect("timed run reports batch stats");
        println!(
            "  solo pipeline: split={:?} process={:?} merge={:?} join={:?}",
            es.shared_scan.split,
            es.shared_scan.process,
            es.shared_scan.merge,
            es.per_query[0].join
        );
    }
    let (_, bstats) = {
        let ds = Dataset::from_file(&path, Format::GeoJson).unwrap();
        engine
            .execb_timed(std::slice::from_ref(&join), &ds)
            .unwrap()
    };
    println!(
        "  buffered shared_scan: split={:?} process={:?} merge={:?}",
        bstats.shared_scan.split, bstats.shared_scan.process, bstats.shared_scan.merge
    );
    dump_query(&bstats);

    let t = Instant::now();
    for _ in 0..iters {
        let mut src = FileChunkSource::open_with_chunk_len(&path, 1 << 20).unwrap();
        engine.stream1(&join, &mut src, Format::GeoJson).unwrap();
    }
    let per = t.elapsed().as_secs_f64() / iters as f64;
    println!("streamed: {:7.1} MB/s", mb / per);
    let (_, sstats, st) = {
        let mut src = FileChunkSource::open_with_chunk_len(&path, 1 << 20).unwrap();
        engine
            .streamb_timed(std::slice::from_ref(&join), &mut src, Format::GeoJson)
            .unwrap()
    };
    println!(
        "  streamed shared_scan: split={:?} process={:?} merge={:?}",
        sstats.shared_scan.split, sstats.shared_scan.process, sstats.shared_scan.merge
    );
    println!(
        "  stream: chunks={} regions={} peak_frags={} ingest_wait={:?}",
        st.chunks, st.regions, st.peak_fragments, st.ingest_wait
    );
    dump_query(&sstats);
    std::fs::remove_file(&path).ok();
}

fn dump_query(stats: &atgis::BatchStats) {
    for q in &stats.per_query {
        println!(
            "    query: scan={:?} finalize={:?} wall={:?}",
            q.scan, q.finalize, q.wall
        );
        if let Some(j) = &q.join {
            println!(
                "    join: partition(split={:?} process={:?} merge={:?}) refine={:?} join(split={:?} process={:?} merge={:?}) dedup={:?}",
                j.partition.split,
                j.partition.process,
                j.partition.merge,
                j.refine,
                j.join.split,
                j.join.process,
                j.join.merge,
                j.dedup
            );
        }
        if let Some(d) = &q.decisions {
            println!(
                "    decisions: map={:?} sweep={} rtree={}",
                d.map, d.sweep_partitions, d.rtree_partitions
            );
        }
    }
}
