//! Persistence warm-start: time-to-first-result for a join-class
//! query, cold parse vs snapshot restore through the persist store
//! ([`atgis::PersistStore`]), plus the decode cost of the snapshot
//! itself.
//!
//! The smoke assertions pin the two claims the persistence boundary
//! makes before any timing is trusted:
//!
//! 1. **bit-identity** — a session restored from a snapshot returns
//!    exactly the cold-parse results;
//! 2. **zero parse passes** — the restored index answers a join-class
//!    batch without a single scan (`scan_passes == 0`), so the warm
//!    arm is measuring restore + query, never a hidden re-parse.
//!
//! The `fig_persist_first_join` group builds a fresh engine and
//! session per iteration (the restart being simulated): the cold arm
//! clears the store root first, the warm arm finds the snapshot.

use atgis::{Dataset, Engine, ExecOptions, PersistStore, Query, QuerySession};
use atgis_datagen::{write_geojson, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::path::PathBuf;

/// Spatially coherent GeoJSON dataset (sorted by centroid longitude),
/// matching the storage order the other figure benches use.
fn sorted_dataset(objects: usize) -> Dataset {
    let mut ds = OsmGenerator::new(2016).generate(objects);
    ds.objects.sort_by(|a, b| {
        let ax = a.geometry.mbr().center().x;
        let bx = b.geometry.mbr().center().x;
        ax.partial_cmp(&bx).expect("finite centroids")
    });
    Dataset::from_bytes(write_geojson(&ds), Format::GeoJson)
}

fn bench_persist(c: &mut Criterion) {
    let objects = atgis_bench::scaled(1500);
    let dataset = sorted_dataset(objects);
    let joins = vec![Query::join(objects as u64 / 2)];
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fig-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store_engine = || {
        Engine::builder()
            .threads(2)
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(1.0)
            .persist_path(&root)
            .build()
    };

    // Smoke 1+2: the cold run spills, the restored session answers
    // bit-identically with zero parse passes.
    let cold = {
        let session = QuerySession::new(store_engine(), dataset.clone());
        let out = session
            .run(&joins, &ExecOptions::new().timed())
            .expect("cold join");
        assert!(
            out.batch.as_ref().expect("timed run").scan_passes >= 1,
            "the cold join must parse"
        );
        out.collapse().expect("cold results")
    };
    {
        let session = QuerySession::new(store_engine(), dataset.clone());
        let out = session
            .run(&joins, &ExecOptions::new().timed())
            .expect("warm join");
        assert_eq!(
            out.batch.as_ref().expect("timed run").scan_passes,
            0,
            "a restored index must serve the join without a parse pass"
        );
        assert_eq!(
            out.collapse().expect("warm results"),
            cold,
            "restored results must be bit-identical to the cold parse"
        );
    }

    // Time-to-first-result: engine + session construction + the first
    // join, with and without a snapshot to restore from.
    let mut group = c.benchmark_group("fig_persist_first_join");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(dataset.len() as u64));
    group.bench_function("cold", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&root);
            let session = QuerySession::new(store_engine(), dataset.clone());
            session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .unwrap()
        })
    });
    // Re-seed the snapshot the cold arm kept deleting.
    QuerySession::new(store_engine(), dataset.clone())
        .run(&joins, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("re-seed snapshot");
    group.bench_function("warm", |b| {
        b.iter(|| {
            let session = QuerySession::new(store_engine(), dataset.clone());
            session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .unwrap()
        })
    });
    group.finish();

    // One store load: the file read (from the OS page cache after
    // the first iteration) + checksum validation + defensive decode +
    // handle rebuild.
    let store = PersistStore::open(&root).expect("open store");
    let snap_len = std::fs::metadata(store.snapshot_path(dataset.bytes(), Format::GeoJson))
        .expect("snapshot on disk")
        .len();
    let mut group = c.benchmark_group("fig_persist_restore");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(snap_len));
    group.bench_function("decode", |b| {
        b.iter(|| {
            store
                .load(dataset.bytes(), Format::GeoJson)
                .expect("load")
                .expect("snapshot present")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
