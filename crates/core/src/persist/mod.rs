//! The persistent index + aggregate store: the disk tier under the
//! process-lifetime caches.
//!
//! The paper's premise is querying raw files in situ — no load phase —
//! but everything the engine *derives* from a dataset (sealed
//! partition indexes, the XML offset→geometry table, cached
//! [`crate::ShardSet`] MBR probes, finished aggregates) lived only as
//! long as the process. This module spills that derived state to disk
//! as one **snapshot** per dataset and restores it on the next boot,
//! so a restarted server answers its first join query with **zero
//! parse passes** over the raw bytes.
//!
//! # Keying and invalidation
//!
//! [`crate::scheduler::DatasetId`]s are process-local, so they cannot
//! name files across restarts. Snapshots are instead
//! **content-addressed**: the file name is the FNV-1a 64 fingerprint
//! of (format tag ‖ dataset bytes), and the fingerprint plus dataset
//! length are embedded in the header and re-checked at load. The
//! scheduler's generation story carries over exactly: `update()`
//! deletes the outgoing dataset's snapshot *before* swapping the
//! entry, and changed bytes hash to a different file anyway — a
//! stale-generation snapshot can never serve.
//!
//! # Failure contract
//!
//! *Writes are atomic*: encode → unique tmp file → fsync → rename.
//! A crash at any point leaves either the old snapshot, no snapshot,
//! or an orphan `*.tmp*` file that [`PersistStore::open`] sweeps —
//! never a half-written file a later boot could half-trust. *Reads
//! are defensive*: every header field and section payload is
//! checksummed, every length and count is validated against the bytes
//! present before any allocation, and any inconsistency surfaces as a
//! structured [`PersistError`] that callers treat as "no snapshot" —
//! corruption degrades to a cold parse, never a panic or a wrong
//! answer. The failpoints `persist.write.0` / `persist.write.1` /
//! `persist.read.0` (under the `fault-injection` feature) drive the
//! crash-mid-spill and unreadable-store paths deterministically.

mod codec;
pub mod snapshot;

pub use snapshot::{Snapshot, SNAPSHOT_VERSION};

use crate::dataset::Dataset;
use crate::pool::recover;
use atgis_formats::Format;
use codec::fnv1a;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a snapshot could not be written or read back. Load-side errors
/// all mean the same thing to callers — "treat as no snapshot, parse
/// cold" — but stay distinct so tests can pin *which* defence fired.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (also models an injected crash).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file is a snapshot, but of a different format version.
    VersionSkew {
        /// The version the file declares.
        found: u16,
    },
    /// Fewer bytes than a declared length or count requires.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes (or worst-case bytes, for counts) required.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A checksummed region does not match its declared digest.
    ChecksumMismatch {
        /// Which region failed.
        what: &'static str,
    },
    /// Bytes that are structurally impossible (bad tag, out-of-range
    /// cell, boolean byte that is neither 0 nor 1, trailing garbage).
    Malformed {
        /// What was being read.
        what: &'static str,
        /// The offending value.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O: {e}"),
            PersistError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            PersistError::VersionSkew { found } => write!(
                f,
                "snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            PersistError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot: {what} needs {needed} bytes, {available} remain"
            ),
            PersistError::ChecksumMismatch { what } => {
                write!(f, "snapshot checksum mismatch in {what}")
            }
            PersistError::Malformed { what, detail } => {
                write!(f, "malformed snapshot: {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Format tag mixed into the dataset fingerprint: the same bytes
/// parsed as WKT and as GeoJSON derive different state.
fn format_tag(format: Format) -> u8 {
    match format {
        Format::GeoJson => 1,
        Format::Wkt => 2,
        Format::OsmXml => 3,
    }
}

/// Content address of a dataset: FNV-1a 64 over the format tag then
/// the raw bytes. This is the snapshot's file name and its identity
/// check at load.
pub(crate) fn dataset_fingerprint(bytes: &[u8], format: Format) -> u64 {
    let seeded = fnv1a(0, &[format_tag(format)]);
    fnv1a(seeded, bytes)
}

/// Observed store activity, for tests and serving diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Snapshots written (tmp + rename completed).
    pub saves: u64,
    /// Save attempts that failed (crash injection, full disk, …).
    pub save_failures: u64,
    /// Loads that returned a validated snapshot.
    pub loads: u64,
    /// Loads that found no snapshot file.
    pub misses: u64,
    /// Loads that found a file but rejected it (corruption, version
    /// skew, identity mismatch) — each one fell back to a cold parse.
    pub load_failures: u64,
    /// Loads served from the resident cache without touching disk.
    pub resident_hits: u64,
    /// Resident entries evicted to respect the byte budget.
    pub resident_evictions: u64,
    /// Snapshot bytes currently resident in memory.
    pub resident_bytes: usize,
    /// Snapshots currently resident in memory.
    pub resident_entries: usize,
}

/// Resident-page accounting: recently written/read snapshot bytes
/// kept in memory under a byte budget, LRU-evicted. Holding the bytes
/// (not the decoded state) keeps the invariant simple: `bytes` is the
/// sum of entry lengths and never exceeds `max(budget, largest single
/// entry)` — one oversized snapshot may be resident alone, because
/// evicting it for nothing would make the cache useless for exactly
/// the datasets that benefit most.
#[derive(Debug)]
pub(crate) struct ResidentCache {
    entries: HashMap<u64, (Arc<Vec<u8>>, u64)>,
    bytes: usize,
    budget: usize,
    tick: u64,
    evictions: u64,
}

impl ResidentCache {
    pub(crate) fn new(budget: usize) -> Self {
        ResidentCache {
            entries: HashMap::new(),
            bytes: 0,
            budget,
            tick: 0,
            evictions: 0,
        }
    }

    pub(crate) fn get(&mut self, fp: u64) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&fp).map(|(bytes, at)| {
            *at = tick;
            Arc::clone(bytes)
        })
    }

    pub(crate) fn insert(&mut self, fp: u64, bytes: Arc<Vec<u8>>) {
        self.tick += 1;
        if let Some((old, _)) = self.entries.insert(fp, (Arc::clone(&bytes), self.tick)) {
            self.bytes -= old.len();
        }
        self.bytes += bytes.len();
        // Evict least-recently-used entries down to the budget, always
        // keeping the newest insert even when it alone exceeds it.
        while self.bytes > self.budget && self.entries.len() > 1 {
            let lru = self
                .entries
                .iter()
                .filter(|(k, _)| **k != fp)
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| *k);
            let Some(victim) = lru else { break };
            if let Some((old, _)) = self.entries.remove(&victim) {
                self.bytes -= old.len();
                self.evictions += 1;
            }
        }
    }

    pub(crate) fn remove(&mut self, fp: u64) {
        if let Some((old, _)) = self.entries.remove(&fp) {
            self.bytes -= old.len();
        }
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Default resident budget: a handful of medium snapshots.
const DEFAULT_RESIDENT_BUDGET: usize = 64 << 20;

/// An injected-crash hook: under `fault-injection`, an armed
/// `persist.*` failpoint's panic is caught here and surfaced as the
/// I/O error the aborted syscall would have produced — the protocol
/// around it must survive exactly as it would a real kill.
fn persist_fault(name: &str) -> Result<(), PersistError> {
    #[cfg(feature = "fault-injection")]
    {
        if std::panic::catch_unwind(|| crate::fault::fire(name)).is_err() {
            return Err(PersistError::Io(std::io::Error::other(format!(
                "injected fault at {name}"
            ))));
        }
    }
    let _ = name;
    Ok(())
}

/// The on-disk snapshot store: one directory, one `<fingerprint>.snap`
/// file per dataset, plus a resident cache of recently touched
/// snapshot bytes. Shared by every session of an [`crate::Engine`]
/// built with [`crate::EngineBuilder::persist_path`].
#[derive(Debug)]
pub struct PersistStore {
    root: PathBuf,
    resident: Mutex<ResidentCache>,
    saves: AtomicU64,
    save_failures: AtomicU64,
    loads: AtomicU64,
    misses: AtomicU64,
    load_failures: AtomicU64,
    resident_hits: AtomicU64,
    tmp_seq: AtomicU64,
}

impl PersistStore {
    /// Opens (creating if needed) the store rooted at `root` and
    /// sweeps orphan `*.tmp*` files a killed writer may have left.
    pub fn open(root: impl Into<PathBuf>) -> Result<PersistStore, PersistError> {
        PersistStore::open_with_budget(root, DEFAULT_RESIDENT_BUDGET)
    }

    /// [`PersistStore::open`] with an explicit resident-cache byte
    /// budget.
    pub fn open_with_budget(
        root: impl Into<PathBuf>,
        budget: usize,
    ) -> Result<PersistStore, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        // Orphan tmp files are dead by construction (the rename never
        // happened), so sweeping them is always safe.
        for entry in fs::read_dir(&root)? {
            let path = entry?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp"))
            {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(PersistStore {
            root,
            resident: Mutex::new(ResidentCache::new(budget)),
            saves: AtomicU64::new(0),
            save_failures: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            resident_hits: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the snapshot for a dataset lives (whether or not one
    /// exists yet) — torture tests corrupt the file at this path.
    pub fn snapshot_path(&self, bytes: &[u8], format: Format) -> PathBuf {
        self.root
            .join(format!("{:016x}.snap", dataset_fingerprint(bytes, format)))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PersistStats {
        let resident = recover(self.resident.lock());
        PersistStats {
            saves: self.saves.load(Ordering::Relaxed),
            save_failures: self.save_failures.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            resident_hits: self.resident_hits.load(Ordering::Relaxed),
            resident_evictions: resident.evictions(),
            resident_bytes: resident.resident_bytes(),
            resident_entries: resident.len(),
        }
    }

    /// Writes `snap` atomically: encode → unique tmp file → fsync →
    /// rename over any previous snapshot. Callers on the query path
    /// ignore the result (a failed spill costs only future warm
    /// starts); tests assert on it.
    pub fn save(&self, snap: &Snapshot) -> Result<(), PersistError> {
        let outcome = self.save_inner(snap);
        match &outcome {
            Ok(()) => self.saves.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.save_failures.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    fn save_inner(&self, snap: &Snapshot) -> Result<(), PersistError> {
        let encoded = Arc::new(snapshot::encode(snap));
        persist_fault("persist.write.0")?;
        let final_path = self.root.join(format!("{:016x}.snap", snap.fingerprint));
        // Unique per process *and* per attempt, so concurrent spills
        // (or a sweep racing a live writer) never collide.
        let tmp_path = self.root.join(format!(
            "{:016x}.tmp.{}.{}",
            snap.fingerprint,
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        let write = (|| -> Result<(), PersistError> {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&encoded)?;
            f.sync_all()?;
            persist_fault("persist.write.1")?;
            fs::rename(&tmp_path, &final_path)?;
            Ok(())
        })();
        if write.is_err() {
            // The rename never happened: the orphan carries no
            // observable state, remove it eagerly (open() would sweep
            // it anyway).
            let _ = fs::remove_file(&tmp_path);
            return write;
        }
        recover(self.resident.lock()).insert(snap.fingerprint, encoded);
        Ok(())
    }

    /// Loads and validates the snapshot for a dataset. `Ok(None)`
    /// means no snapshot exists; `Err` means one exists but could not
    /// be trusted (corruption, version skew, identity mismatch,
    /// injected read fault) — callers treat both as "parse cold".
    pub fn load(&self, bytes: &[u8], format: Format) -> Result<Option<Snapshot>, PersistError> {
        let outcome = self.load_inner(bytes, format);
        match &outcome {
            Ok(Some(_)) => self.loads.fetch_add(1, Ordering::Relaxed),
            Ok(None) => self.misses.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.load_failures.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    fn load_inner(&self, bytes: &[u8], format: Format) -> Result<Option<Snapshot>, PersistError> {
        persist_fault("persist.read.0")?;
        let fp = dataset_fingerprint(bytes, format);
        let resident = recover(self.resident.lock()).get(fp);
        let encoded = match resident {
            Some(encoded) => {
                self.resident_hits.fetch_add(1, Ordering::Relaxed);
                encoded
            }
            None => {
                let path = self.root.join(format!("{fp:016x}.snap"));
                match fs::read(&path) {
                    Ok(encoded) => Arc::new(encoded),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                    Err(e) => return Err(e.into()),
                }
            }
        };
        let snap = match snapshot::decode(&encoded) {
            Ok(snap) => snap,
            Err(e) => {
                // Never serve rejected bytes again from memory.
                recover(self.resident.lock()).remove(fp);
                return Err(e);
            }
        };
        // Identity check: the embedded fingerprint and length must
        // match the dataset in hand — a snapshot renamed over another
        // dataset's address can never serve.
        if snap.fingerprint != fp || snap.dataset_len != bytes.len() as u64 {
            recover(self.resident.lock()).remove(fp);
            return Err(PersistError::Malformed {
                what: "snapshot identity",
                detail: format!(
                    "snapshot is of dataset {:016x} ({} bytes), asked for {:016x} ({} bytes)",
                    snap.fingerprint,
                    snap.dataset_len,
                    fp,
                    bytes.len()
                ),
            });
        }
        recover(self.resident.lock()).insert(fp, encoded);
        Ok(Some(snap))
    }

    /// Deletes a dataset's snapshot (scheduler `update()`: the old
    /// bytes' derived state must never serve again). Best-effort — a
    /// missing file is already the goal state.
    pub fn remove(&self, bytes: &[u8], format: Format) {
        let fp = dataset_fingerprint(bytes, format);
        recover(self.resident.lock()).remove(fp);
        let _ = fs::remove_file(self.root.join(format!("{fp:016x}.snap")));
    }

    /// Convenience: [`PersistStore::load`] against a [`Dataset`].
    pub(crate) fn load_dataset(&self, dataset: &Dataset) -> Result<Option<Snapshot>, PersistError> {
        self.load(dataset.bytes(), dataset.format())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{IndexKey, PartitionIndex};
    use crate::partition::{AdaptiveConfig, ArrayStore, PartEntry, PartitionMap};
    use crate::result::{AggregateValues, QueryResult};
    use crate::scheduler::{QueryKey, RegionKey};
    use crate::shard::{Shard, ShardSet};
    use atgis_geometry::Mbr;
    use proptest::prelude::*;

    fn tmp_root(name: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR exists only for integration tests, so
        // unit tests nest under the system temp dir, namespaced by
        // pid to keep concurrent `cargo test` runs apart.
        let root =
            std::env::temp_dir().join(format!("atgis-persist-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn shard_snapshot(fp: u64, dataset_len: u64) -> Snapshot {
        Snapshot {
            generation: 3,
            dataset_len,
            fingerprint: fp,
            indexes: Vec::new(),
            shard_sets: vec![(
                2,
                Arc::new(ShardSet::from_shards(vec![
                    Shard {
                        start: 0,
                        end: dataset_len as usize / 2,
                        mbr: Some(Mbr::new(0.0, 0.0, 1.0, 1.0)),
                        features: 4,
                    },
                    Shard {
                        start: dataset_len as usize / 2,
                        end: dataset_len as usize,
                        mbr: None,
                        features: 0,
                    },
                ])),
            )],
            aggregates: vec![(
                QueryKey::Containment {
                    region: RegionKey(vec![vec![(1, 2), (3, 4)]]),
                },
                QueryResult::Aggregate(AggregateValues {
                    count: 7,
                    total_area: 1.5,
                    total_perimeter: -0.0,
                }),
            )],
        }
    }

    #[test]
    fn save_load_round_trip_and_identity_check() {
        let store = PersistStore::open(tmp_root("round-trip")).unwrap();
        let data = b"dataset bytes".to_vec();
        let fp = dataset_fingerprint(&data, Format::Wkt);
        store.save(&shard_snapshot(fp, data.len() as u64)).unwrap();

        let snap = store.load(&data, Format::Wkt).unwrap().expect("saved");
        assert_eq!(snap.generation(), 3);
        assert_eq!(snap.shard_set_count(), 1);
        assert_eq!(snap.aggregate_count(), 1);

        // The same bytes under a different format are a different
        // dataset: no snapshot.
        assert!(store.load(&data, Format::GeoJson).unwrap().is_none());
        // Different bytes: no snapshot.
        assert!(store.load(b"other", Format::Wkt).unwrap().is_none());
        assert_eq!(store.stats().loads, 1);
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn renamed_snapshot_fails_the_identity_check() {
        let store = PersistStore::open(tmp_root("rename")).unwrap();
        let a = b"dataset a".to_vec();
        let b = b"dataset b!".to_vec();
        let fp_a = dataset_fingerprint(&a, Format::Wkt);
        store.save(&shard_snapshot(fp_a, a.len() as u64)).unwrap();
        fs::rename(
            store.snapshot_path(&a, Format::Wkt),
            store.snapshot_path(&b, Format::Wkt),
        )
        .unwrap();
        let err = store.load(&b, Format::Wkt).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Malformed {
                what: "snapshot identity",
                ..
            }
        ));
        assert_eq!(store.stats().load_failures, 1);
    }

    #[test]
    fn open_sweeps_orphan_tmp_files() {
        let root = tmp_root("sweep");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("0123.tmp.99.0"), b"half a snapshot").unwrap();
        fs::write(root.join("keep.snap"), b"not tmp").unwrap();
        let _store = PersistStore::open(&root).unwrap();
        assert!(!root.join("0123.tmp.99.0").exists(), "orphan swept");
        assert!(root.join("keep.snap").exists(), "snapshots untouched");
    }

    #[test]
    fn corrupt_file_is_a_structured_error_and_resident_entry_is_dropped() {
        let store = PersistStore::open(tmp_root("corrupt")).unwrap();
        let data = b"dataset bytes".to_vec();
        let fp = dataset_fingerprint(&data, Format::Wkt);
        store.save(&shard_snapshot(fp, data.len() as u64)).unwrap();
        // Flip one payload byte on disk; the resident copy is still
        // clean, so loads keep succeeding until it is dropped.
        let path = store.snapshot_path(&data, Format::Wkt);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&data, Format::Wkt).unwrap().is_some());

        // A fresh store (cold resident cache) must reject the file.
        let cold = PersistStore::open(store.root()).unwrap();
        assert!(cold.load(&data, Format::Wkt).is_err());
        // And having rejected it, it must not have cached the bad
        // bytes: the next load re-reads and re-rejects.
        assert!(cold.load(&data, Format::Wkt).is_err());
        assert_eq!(cold.stats().resident_hits, 0);
    }

    proptest! {
        /// Canonical encoding: decoding any encoded snapshot and
        /// re-encoding it reproduces the bytes exactly.
        #[test]
        fn encode_decode_encode_is_identity(
            entries in prop::collection::vec(
                (0u64..1000, 0u64..10_000, 1u32..500,
                 -10.0..10.0f64, -10.0..10.0f64, 0.0..5.0f64),
                0..40),
            shard_cuts in prop::collection::vec(0u64..10_000, 0..6),
            generation in 1u64..100,
        ) {
            let mut store = ArrayStore::new(4);
            for (i, (id, offset, len, x, y, size)) in entries.iter().enumerate() {
                store.push(i % 4, PartEntry {
                    id: *id,
                    offset: *offset,
                    len: *len,
                    mbr: Mbr::new(*x, *y, *x + *size, *y + *size),
                });
            }
            let index = PartitionIndex {
                map: PartitionMap::uniform(&store),
                store,
                refine: std::time::Duration::from_nanos(generation),
                xml_table: None,
            };
            let key = IndexKey {
                cell_deg: 1.0f64.to_bits(),
                extent: [0, 1, 2, 3],
                adaptive: AdaptiveConfig::default(),
            };
            let dataset_len = 10_000u64;
            let mut bounds: Vec<u64> = shard_cuts.clone();
            bounds.push(0);
            bounds.push(dataset_len);
            bounds.sort_unstable();
            bounds.dedup();
            let shards: Vec<Shard> = bounds
                .windows(2)
                .map(|w| Shard {
                    start: w[0] as usize,
                    end: w[1] as usize,
                    mbr: (w[0] % 2 == 0).then(|| Mbr::new(0.0, 0.0, 1.0, 1.0)),
                    features: w[1] - w[0],
                })
                .collect();
            let snap = Snapshot {
                generation,
                dataset_len,
                fingerprint: 0xfeed_beef,
                indexes: vec![(key, Arc::new(index))],
                shard_sets: vec![(shards.len().max(1), Arc::new(ShardSet::from_shards(shards)))],
                aggregates: vec![
                    (QueryKey::Join { threshold: generation },
                     QueryResult::Aggregate(AggregateValues {
                         count: entries.len() as u64,
                         total_area: f64::NAN,
                         total_perimeter: -0.0,
                     })),
                ],
            };
            let first = snapshot::encode(&snap);
            let decoded = snapshot::decode(&first).unwrap();
            let second = snapshot::encode(&decoded);
            prop_assert_eq!(first, second);
            prop_assert_eq!(decoded.generation(), generation);
            prop_assert_eq!(decoded.index_count(), 1);
        }

        /// Resident accounting never exceeds max(budget, largest
        /// entry), stays exact under inserts/updates/removes, and
        /// keeps at least the newest entry.
        #[test]
        fn resident_budget_invariants(
            ops in prop::collection::vec((0u64..8, 1usize..600, prop::bool::ANY), 1..80),
            budget in 64usize..1500,
        ) {
            let mut cache = ResidentCache::new(budget);
            let mut largest = 0usize;
            for (key, size, is_insert) in ops {
                if is_insert {
                    largest = largest.max(size);
                    cache.insert(key, Arc::new(vec![0u8; size]));
                    prop_assert!(cache.len() >= 1, "newest insert always resident");
                } else {
                    cache.remove(key);
                }
                prop_assert!(
                    cache.resident_bytes() <= budget.max(largest),
                    "{} bytes resident exceeds max(budget {budget}, largest {largest})",
                    cache.resident_bytes(),
                );
            }
        }
    }

    #[cfg(feature = "fault-injection")]
    mod faults {
        use super::*;
        use crate::fault::{arm, disarm, FaultAction};

        #[test]
        fn injected_write_fault_aborts_cleanly() {
            let store = PersistStore::open(tmp_root("fault-write")).unwrap();
            let data = b"dataset bytes".to_vec();
            let fp = dataset_fingerprint(&data, Format::Wkt);

            arm("persist.write.0", FaultAction::Panic("killed".into()));
            let err = store.save(&shard_snapshot(fp, data.len() as u64));
            assert!(disarm("persist.write.0") >= 1);
            assert!(matches!(err, Err(PersistError::Io(_))));
            assert!(
                store.load(&data, Format::Wkt).unwrap().is_none(),
                "aborted save left no snapshot"
            );
            assert_eq!(store.stats().save_failures, 1);

            // Without the fault the same save goes through.
            store.save(&shard_snapshot(fp, data.len() as u64)).unwrap();
            assert!(store.load(&data, Format::Wkt).unwrap().is_some());
        }
    }
}
