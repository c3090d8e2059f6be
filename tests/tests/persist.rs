//! Persistence-boundary differentials: a snapshot written by one
//! engine and restored by a fresh one (a simulated process restart)
//! must serve results **bit-identical** to a cold parse across every
//! format × parse mode × thread count × shard count × query class —
//! and a restored index must answer join-class batches with **zero**
//! parse passes. On top of the identity matrix this suite tortures
//! the on-disk format: truncation at every section boundary, seeded
//! bit flips over the whole file, version skew and magic corruption
//! must each yield a structured [`PersistError`] and a clean
//! cold-parse fallback — never a panic, never a wrong answer. Under
//! `--features fault-injection` the failpoints `persist.write.0`,
//! `persist.write.1` and `persist.read.0` prove the atomic
//! tmp-file + rename protocol: a spill killed at any stage leaves no
//! snapshot and no orphan, and a poisoned read degrades to cold.
//!
//! Reproduce a torture failure with `ATGIS_FAULT_SEED=<seed>` — the
//! seed is printed by every seeded run.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use atgis::persist::{snapshot, SNAPSHOT_VERSION};
use atgis::{
    Dataset, Engine, ExecOptions, PersistError, PersistStore, Query, QueryScheduler, QuerySession,
};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;
use atgis_tests::XorShift64;

/// Spatially coherent dataset (sorted by centroid longitude, like a
/// real regional export) so shard MBR pruning is in play and the
/// cached `ShardSet` probes carried by the snapshot matter.
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

fn engine(threads: usize, mode: Mode, store: Option<&Path>) -> Engine {
    let mut b = Engine::builder()
        .threads(threads)
        .mode(mode)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0);
    if let Some(root) = store {
        b = b.persist_path(root);
    }
    b.build()
}

/// Failpoints are process-wide: while the failpoint test has
/// `persist.read.0` armed, a concurrent test's snapshot load would hit
/// it. Every test holds this lock so they never overlap.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh store root under the harness tmpdir, cleared of any debris
/// from a previous run of the same test.
fn store_root(name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Every query class: selective containments and aggregations plus a
/// join (the index-bearing class the snapshot exists to warm-start).
fn mixed_batch(objects: u64) -> Vec<Query> {
    vec![
        Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
        Query::containment(Mbr::new(-10.0, 40.0, -8.0, 42.0)),
        Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)),
        Query::aggregation(Mbr::new(6.0, 56.0, 10.0, 60.0)),
        Query::join(objects / 2),
    ]
}

/// The identity matrix: save → fresh engine on the same store
/// (simulated restart) → restore → bit-identical to a storeless cold
/// parse, across GeoJSON/WKT/XML × Pat/Fat/Adaptive × threads {1, 3}
/// × shards {1, 4} × containment/aggregation/join.
#[test]
fn warm_restart_is_bit_identical_across_the_matrix() {
    let _serial = serial();
    const OBJECTS: usize = 300;
    for format in [Format::GeoJson, Format::Wkt, Format::OsmXml] {
        let dataset = sorted_dataset(7, OBJECTS, format);
        let queries = mixed_batch(OBJECTS as u64);
        for threads in [1usize, 3] {
            for mode in [Mode::Pat, Mode::Fat, Mode::Adaptive] {
                // The oracle never sees a store: pure cold parse.
                let oracle = QuerySession::new(engine(threads, mode, None), dataset.clone())
                    .run(&queries, &ExecOptions::new())
                    .and_then(|o| o.collapse())
                    .expect("cold oracle");
                for shards in [1usize, 4] {
                    let root =
                        store_root(&format!("matrix-{format:?}-{mode:?}-t{threads}-s{shards}"));
                    let opts = if shards > 1 {
                        ExecOptions::new().sharded(shards)
                    } else {
                        ExecOptions::new()
                    };
                    // Cold run against the store: parses, answers,
                    // spills the index (and shard layout) it built.
                    {
                        let session =
                            QuerySession::new(engine(threads, mode, Some(&root)), dataset.clone());
                        let got = session
                            .run(&queries, &opts)
                            .and_then(|o| o.collapse())
                            .expect("cold run with store");
                        assert_eq!(
                            got, oracle,
                            "store-backed cold run diverged at {format:?}/{mode:?}/threads={threads}/shards={shards}"
                        );
                    }
                    // Simulated restart: a fresh engine and session
                    // over the same root restore the snapshot.
                    let warm = engine(threads, mode, Some(&root));
                    let store = warm.persist().expect("engine carries the store");
                    assert!(
                        store.snapshot_path(dataset.bytes(), format).exists(),
                        "the cold run must have spilled a snapshot at {format:?}/{mode:?}/threads={threads}/shards={shards}"
                    );
                    let session = QuerySession::new(warm, dataset.clone());
                    let got = session
                        .run(&queries, &opts)
                        .and_then(|o| o.collapse())
                        .expect("warm run");
                    assert_eq!(
                        got, oracle,
                        "restored run diverged at {format:?}/{mode:?}/threads={threads}/shards={shards}"
                    );
                }
            }
        }
    }
}

/// The headline warm-start observable: a restored partition index
/// (including the XML geometry table) answers a join-class batch with
/// **zero** parse passes — the restore really did replace the scan.
#[test]
fn warm_join_answers_with_zero_parse_passes() {
    let _serial = serial();
    const OBJECTS: u64 = 240;
    for format in [Format::GeoJson, Format::Wkt, Format::OsmXml] {
        let root = store_root(&format!("zeroparse-{format:?}"));
        let dataset = sorted_dataset(13, OBJECTS as usize, format);
        let joins = vec![Query::join(OBJECTS / 2), Query::join(OBJECTS / 3)];
        let cold = {
            let session = QuerySession::new(engine(2, Mode::Pat, Some(&root)), dataset.clone());
            let out = session
                .run(&joins, &ExecOptions::new().timed())
                .expect("cold join run");
            assert!(
                out.batch.as_ref().expect("timed run").scan_passes >= 1,
                "cold joins must parse at {format:?}"
            );
            out.collapse().expect("cold results")
        };
        let warm = engine(2, Mode::Pat, Some(&root));
        let store_stats = {
            let session = QuerySession::new(warm.clone(), dataset.clone());
            let out = session
                .run(&joins, &ExecOptions::new().timed())
                .expect("warm join run");
            assert_eq!(
                out.batch.as_ref().expect("timed run").scan_passes,
                0,
                "a restored index must serve joins without a single parse pass at {format:?}"
            );
            assert_eq!(out.collapse().expect("warm results"), cold);
            warm.persist().expect("store").stats()
        };
        assert!(store_stats.loads >= 1, "the restore went through the store");
    }
}

/// Scheduler write-through and restore: aggregates computed by one
/// scheduler are served from the cache by a fresh scheduler over the
/// same store — single-pass queries all hit, the join rides the
/// restored index, and the whole warm batch runs without one scan.
#[test]
fn scheduler_restore_serves_the_aggregate_cache() {
    let _serial = serial();
    const OBJECTS: u64 = 300;
    let root = store_root("scheduler");
    let dataset = sorted_dataset(17, OBJECTS as usize, Format::GeoJson);
    let queries = mixed_batch(OBJECTS);
    let cold = {
        let scheduler = QueryScheduler::new(engine(2, Mode::Pat, Some(&root)));
        let id = scheduler.register(dataset.clone());
        scheduler
            .run(id, &queries, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("cold scheduled run")
    };
    // Simulated restart: registration restores the snapshot's index,
    // shard layouts and finished aggregates under the fresh
    // dataset id × generation.
    let scheduler = QueryScheduler::new(engine(2, Mode::Pat, Some(&root)));
    let id = scheduler.register(dataset.clone());
    let out = scheduler
        .run(id, &queries, &ExecOptions::new().timed())
        .expect("warm scheduled run");
    let stats = out.scheduler.clone().expect("timed run reports stats");
    // Every single-pass query (2 containments + 2 aggregations) is a
    // cache hit; the join is not cacheable but runs over the restored
    // index, so the batch as a whole never scans.
    assert_eq!(stats.cache_hits, 4, "restored aggregates must serve");
    assert_eq!(stats.scan_passes, 0, "warm batch must not parse");
    assert_eq!(out.collapse().expect("warm results"), cold);
}

/// `update()` invalidation carries over the persistence boundary: the
/// superseded dataset's snapshot is deleted *before* the swap, so a
/// stale-generation snapshot can never serve — not in this process,
/// not in the next one.
#[test]
fn restore_then_update_never_serves_stale_state() {
    let _serial = serial();
    const OBJECTS: u64 = 260;
    let root = store_root("update");
    let old = sorted_dataset(19, OBJECTS as usize, Format::GeoJson);
    let new = sorted_dataset(23, OBJECTS as usize, Format::GeoJson);
    let queries = mixed_batch(OBJECTS);

    let scheduler = QueryScheduler::new(engine(2, Mode::Pat, Some(&root)));
    let store = scheduler.engine().persist().expect("store").clone();
    let id = scheduler.register(old.clone());
    scheduler
        .run(id, &queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("run against the old bytes");
    let old_snap = store.snapshot_path(old.bytes(), Format::GeoJson);
    assert!(old_snap.exists(), "the old dataset spilled a snapshot");

    scheduler.update(id, new.clone()).expect("update");
    assert!(
        !old_snap.exists(),
        "update() must delete the superseded snapshot before the swap"
    );

    // Post-update traffic answers over the new bytes, identical to a
    // storeless cold parse of those bytes.
    let oracle = QuerySession::new(engine(2, Mode::Pat, None), new.clone())
        .run(&queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("cold oracle over the new bytes");
    let got = scheduler
        .run(id, &queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("post-update run");
    assert_eq!(got, oracle, "post-update results must cover the new bytes");

    // A restarted process warm-starts from the *new* dataset's
    // snapshot; the old bytes find nothing and parse cold — the stale
    // snapshot is unreachable because it no longer exists.
    let restarted = PersistStore::open(&root).expect("reopen store");
    assert!(matches!(
        restarted.load(old.bytes(), Format::GeoJson),
        Ok(None)
    ));
    let warm = restarted
        .load(new.bytes(), Format::GeoJson)
        .expect("load new snapshot");
    assert!(warm.is_some(), "the new dataset's snapshot survives");
}

/// Runs `queries` through a fresh store-backed session and asserts
/// the results equal the storeless oracle — the cold-fallback check
/// every corruption in the torture suite must pass.
fn assert_falls_back_to_cold(
    root: &Path,
    dataset: &Dataset,
    queries: &[Query],
    oracle: &[atgis::QueryResult],
    context: &str,
) {
    let session = QuerySession::new(engine(2, Mode::Pat, Some(root)), dataset.clone());
    let got = session
        .run(queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .unwrap_or_else(|e| panic!("fallback run failed under {context}: {e}"));
    assert_eq!(
        got, oracle,
        "fallback diverged from cold parse under {context}"
    );
}

/// Corruption torture: truncation at every section boundary and a
/// spread of header offsets, seeded bit flips across the whole file,
/// version skew and magic corruption. Every mutation must surface as
/// a structured [`PersistError`] from `load` and degrade the session
/// to a cold parse that is bit-identical to the storeless oracle —
/// never a panic, never a wrong answer.
#[test]
fn corrupt_snapshots_degrade_to_cold_never_panic() {
    let _serial = serial();
    const OBJECTS: u64 = 160;
    let root = store_root("torture");
    let dataset = sorted_dataset(29, OBJECTS as usize, Format::GeoJson);
    let queries = vec![
        Query::containment(Mbr::new(-2.0, 48.0, 2.0, 52.0)),
        Query::aggregation(Mbr::new(0.0, 50.0, 4.0, 54.0)),
        Query::join(OBJECTS / 2),
    ];
    let oracle = QuerySession::new(engine(2, Mode::Pat, None), dataset.clone())
        .run(&queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("cold oracle");

    // Write one good snapshot, then keep its bytes as the template
    // every mutation corrupts.
    {
        let session = QuerySession::new(engine(2, Mode::Pat, Some(&root)), dataset.clone());
        let got = session
            .run(&queries, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("seeding run");
        assert_eq!(got, oracle);
    }
    let store = PersistStore::open(&root).expect("open store");
    let path = store.snapshot_path(dataset.bytes(), Format::GeoJson);
    let good = std::fs::read(&path).expect("snapshot bytes");
    assert!(
        store
            .load(dataset.bytes(), Format::GeoJson)
            .expect("pristine load")
            .is_some(),
        "the pristine snapshot must restore — otherwise the torture below tests nothing"
    );

    // --- truncation at every structural boundary ---
    let mut cuts = snapshot::section_boundaries(&good);
    cuts.extend([0, 1, 3, 4, 5, 6, 7, 20, 37]);
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts.into_iter().filter(|&c| c < good.len()) {
        std::fs::write(&path, &good[..cut]).expect("write truncated snapshot");
        let fresh = PersistStore::open(&root).expect("reopen store");
        let err = fresh
            .load(dataset.bytes(), Format::GeoJson)
            .expect_err("a truncated snapshot must be a structured error");
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::Malformed { .. }
                    | PersistError::BadMagic
                    | PersistError::VersionSkew { .. }
            ),
            "unexpected error for truncation at {cut}: {err:?}"
        );
        assert_falls_back_to_cold(
            &root,
            &dataset,
            &queries,
            &oracle,
            &format!("truncation at byte {cut}"),
        );
    }

    // --- seeded bit flips across the whole file ---
    let mut rng = XorShift64::from_env();
    for trial in 0..48 {
        let mut bytes = good.clone();
        let bit = rng.below(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).expect("write flipped snapshot");
        let fresh = PersistStore::open(&root).expect("reopen store");
        let loaded = fresh.load(dataset.bytes(), Format::GeoJson);
        assert!(
            loaded.is_err(),
            "trial {trial}: a flipped bit at offset {} must not load: {loaded:?}",
            bit / 8
        );
        assert_falls_back_to_cold(
            &root,
            &dataset,
            &queries,
            &oracle,
            &format!(
                "bit flip at byte {} bit {} (trial {trial})",
                bit / 8,
                bit % 8
            ),
        );
    }

    // --- version skew: an older or a future format rev is rejected
    // by name ---
    for version in [SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
        let mut skewed = good.clone();
        skewed[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &skewed).expect("write skewed snapshot");
        let fresh = PersistStore::open(&root).expect("reopen store");
        match fresh.load(dataset.bytes(), Format::GeoJson) {
            Err(PersistError::VersionSkew { found }) => assert_eq!(found, version),
            other => panic!("version skew to {version} must be named: {other:?}"),
        }
        assert_falls_back_to_cold(
            &root,
            &dataset,
            &queries,
            &oracle,
            &format!("version skew to {version}"),
        );
    }

    // --- magic corruption and outright garbage ---
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    std::fs::write(&path, &bad_magic).expect("write bad-magic snapshot");
    let fresh = PersistStore::open(&root).expect("reopen store");
    assert!(matches!(
        fresh.load(dataset.bytes(), Format::GeoJson),
        Err(PersistError::BadMagic)
    ));
    let garbage: Vec<u8> = (0..good.len()).map(|_| rng.next_u64() as u8).collect();
    std::fs::write(&path, &garbage).expect("write garbage snapshot");
    let fresh = PersistStore::open(&root).expect("reopen store");
    assert!(fresh.load(dataset.bytes(), Format::GeoJson).is_err());
    assert_falls_back_to_cold(&root, &dataset, &queries, &oracle, "garbage file");

    // --- and the good bytes still restore after all of that ---
    std::fs::write(&path, &good).expect("restore good snapshot");
    let fresh = PersistStore::open(&root).expect("reopen store");
    assert!(fresh
        .load(dataset.bytes(), Format::GeoJson)
        .expect("pristine load")
        .is_some());
}

/// A snapshot renamed onto another dataset's key must fail the
/// embedded-identity check and leave both datasets serving cold,
/// correct results — content addressing alone is not trusted.
#[test]
fn renamed_snapshot_cannot_cross_datasets() {
    let _serial = serial();
    const OBJECTS: u64 = 180;
    let root = store_root("rename");
    let a = sorted_dataset(31, OBJECTS as usize, Format::GeoJson);
    let b = sorted_dataset(37, OBJECTS as usize, Format::GeoJson);
    let queries = mixed_batch(OBJECTS);
    {
        let session = QuerySession::new(engine(2, Mode::Pat, Some(&root)), a.clone());
        session
            .run(&queries, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("seed dataset a");
    }
    let store = PersistStore::open(&root).expect("open store");
    let from = store.snapshot_path(a.bytes(), Format::GeoJson);
    let to = store.snapshot_path(b.bytes(), Format::GeoJson);
    std::fs::copy(&from, &to).expect("masquerade a's snapshot as b's");

    let fresh = PersistStore::open(&root).expect("reopen store");
    assert!(
        fresh.load(b.bytes(), Format::GeoJson).is_err(),
        "the embedded fingerprint must reject the renamed snapshot"
    );
    let oracle = QuerySession::new(engine(2, Mode::Pat, None), b.clone())
        .run(&queries, &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("cold oracle for b");
    assert_falls_back_to_cold(&root, &b, &queries, &oracle, "renamed snapshot");
}

/// The atomic-spill and poisoned-read failpoints, plus the orphan
/// sweep — the kill-during-spill story end to end. One test so the
/// process-global fault registry is never shared across threads.
#[cfg(feature = "fault-injection")]
mod failpoints {
    use super::*;
    use atgis::fault::{self, FaultAction};

    fn tmp_files(root: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(root)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.to_string_lossy().contains(".tmp."))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn spill_and_restore_survive_injected_faults() {
        let _serial = serial();
        fault::disarm_all();
        const OBJECTS: u64 = 200;
        let root = store_root("failpoints");
        let dataset = sorted_dataset(41, OBJECTS as usize, Format::GeoJson);
        let joins = vec![Query::join(OBJECTS / 2)];
        let oracle = QuerySession::new(engine(2, Mode::Pat, None), dataset.clone())
            .run(&joins, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("cold oracle");

        // Kill the spill before the tmp file exists: the query still
        // answers, nothing is left on disk.
        fault::arm("persist.write.0", FaultAction::Panic("die pre-tmp".into()));
        {
            let eng = engine(2, Mode::Pat, Some(&root));
            let session = QuerySession::new(eng.clone(), dataset.clone());
            let got = session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .expect("query survives the spill fault");
            assert_eq!(got, oracle);
            let store = eng.persist().expect("store");
            assert!(
                store.stats().save_failures >= 1,
                "the fault was a counted save failure"
            );
            assert!(!store
                .snapshot_path(dataset.bytes(), Format::GeoJson)
                .exists());
        }
        assert!(fault::disarm("persist.write.0") >= 1);
        assert!(
            tmp_files(&root).is_empty(),
            "no debris before the tmp stage"
        );

        // Kill between fsync and rename — the classic torn-spill
        // window. The snapshot must not appear (rename never ran) and
        // the tmp file is cleaned up, not left to masquerade later.
        fault::arm(
            "persist.write.1",
            FaultAction::Panic("die pre-rename".into()),
        );
        {
            let eng = engine(2, Mode::Pat, Some(&root));
            let session = QuerySession::new(eng.clone(), dataset.clone());
            session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .expect("query survives the torn spill");
            let store = eng.persist().expect("store");
            assert!(!store
                .snapshot_path(dataset.bytes(), Format::GeoJson)
                .exists());
        }
        assert!(fault::disarm("persist.write.1") >= 1);
        assert!(tmp_files(&root).is_empty(), "torn spill leaves no tmp file");

        // A hard kill that *did* leave an orphan tmp (simulated by
        // planting one) is swept by the next open.
        std::fs::create_dir_all(&root).expect("store root");
        let orphan = root.join("00000000deadbeef.tmp.999.1");
        std::fs::write(&orphan, b"torn").expect("plant orphan");
        let _ = PersistStore::open(&root).expect("reopen sweeps");
        assert!(!orphan.exists(), "open() must sweep orphan tmp files");

        // Clean spill, then a poisoned read: restore fails, the
        // session parses cold, answers stay bit-identical.
        {
            let session = QuerySession::new(engine(2, Mode::Pat, Some(&root)), dataset.clone());
            session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .expect("clean spill");
        }
        fault::arm("persist.read.0", FaultAction::Panic("die on load".into()));
        {
            let eng = engine(2, Mode::Pat, Some(&root));
            let session = QuerySession::new(eng.clone(), dataset.clone());
            let got = session
                .run(&joins, &ExecOptions::new())
                .and_then(|o| o.collapse())
                .expect("query survives the poisoned read");
            assert_eq!(got, oracle, "cold fallback after a read fault");
            assert!(eng.persist().expect("store").stats().load_failures >= 1);
        }
        assert!(fault::disarm("persist.read.0") >= 1);
        fault::disarm_all();

        // With every fault disarmed the same root warm-starts.
        let eng = engine(2, Mode::Pat, Some(&root));
        let session = QuerySession::new(eng, dataset.clone());
        let out = session
            .run(&joins, &ExecOptions::new().timed())
            .expect("warm run");
        assert_eq!(out.batch.as_ref().expect("timed").scan_passes, 0);
        assert_eq!(out.collapse().expect("warm results"), oracle);
    }
}
