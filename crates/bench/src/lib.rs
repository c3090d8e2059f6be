//! Shared workload setup for the AT-GIS benchmark harness.
//!
//! Every figure/table of the paper's §5 is regenerated by the
//! `experiments` binary (paper-style text tables, arbitrary scale) and
//! by one Criterion bench per figure (statistical timing at small
//! scale). This module builds the datasets both use.
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as the benchmark harness of the four-layer design,
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.
//!
//! ## The perf gate and `BENCH_baseline.json`
//!
//! CI's `perf-gate` job runs every `fig_*` bench in test mode (one
//! warm-up + min-of-5 timed passes) with JSON emission and compares
//! throughput against the committed
//! `crates/bench/BENCH_baseline.json` via the `perfcmp` binary; an
//! MB/s regression beyond 15% fails the job. The baseline is
//! **host-dependent by construction** (it pins this repo's reference
//! runner), so two situations require regenerating it:
//!
//! 1. an **intentional perf change** (optimisation or accepted
//!    regression), or
//! 2. a **runner-hardware shift** that moves absolute numbers.
//!
//! The workflow:
//!
//! ```sh
//! # 1. run the full bench suite with JSON emission (twice and keep
//! #    the run you trust — the committed file is a min-of-runs floor)
//! export ATGIS_BENCH_JSON=/tmp/bench.json
//! rm -f "$ATGIS_BENCH_JSON"
//! for b in fig09_scaling fig10_systems fig11_partition_join \
//!          fig12_formats fig13_filtering fig14_skew \
//!          fig15_partitioning fig_batch fig_sched fig_stream \
//!          fig_shard fig_persist table1_operators; do
//!   cargo bench --bench "$b" -- --test
//! done
//! # 2. rewrite the committed baseline from it and commit the diff
//! cargo run --release -p atgis-bench --bin perfcmp -- /tmp/bench.json --update
//! ```
//!
//! `perfcmp --tolerance 0.15` (or the `ATGIS_PERF_TOLERANCE` env var)
//! widens the gate without code changes; entries without a throughput
//! (`mb_per_s: null`) never gate — wall-clock nanoseconds are too
//! host-dependent to diff across machines. A baseline entry missing
//! from the compared run **fails** the gate, so partial runs cannot
//! green-wash a regression; `--update` after intentionally removing a
//! bench.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cluster_sim;

use atgis::Dataset;
use atgis_datagen::{
    replicate, write_geojson, write_osm_xml, write_wkt, OsmGenerator, SynthConfig,
};
use atgis_formats::Format;
use std::time::{Duration, Instant};

/// Workload scale knob: object counts multiply by this factor.
/// Read from `ATGIS_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("ATGIS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// When `ATGIS_MMAP=1`, workload datasets are written to temp files
/// and served through [`Dataset::mmap`] instead of heap buffers, so
/// large-scale runs (`ATGIS_SCALE` ≫ 1) do not hold both the
/// generator output and the query input resident twice.
pub fn mmap_enabled() -> bool {
    std::env::var("ATGIS_MMAP")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Scaled object count.
pub fn scaled(base: usize) -> usize {
    ((base as f64 * scale()) as usize).max(10)
}

/// The benchmark datasets of Table 2, at laptop scale.
pub struct Workload {
    /// OSM-like GeoJSON (OSM-G).
    pub osm_g: Dataset,
    /// OSM-like WKT (OSM-W).
    pub osm_w: Dataset,
    /// OSM-like XML (OSM-X).
    pub osm_x: Dataset,
    /// Replicated GeoJSON (OSM-10G analogue; 4× to stay in memory).
    pub osm_rep: Dataset,
    /// Number of objects in the base dataset.
    pub objects: usize,
}

impl Workload {
    /// Builds the standard workload with `objects` base objects.
    /// Honours [`mmap_enabled`]: with `ATGIS_MMAP=1` each dataset is
    /// spilled to a temp file and memory-mapped.
    pub fn build(objects: usize) -> Self {
        let ds = OsmGenerator::new(2016).generate(objects);
        let rep = replicate(&ds, 4);
        Workload {
            osm_g: materialize(write_geojson(&ds), Format::GeoJson, "osm_g", objects),
            osm_w: materialize(write_wkt(&ds), Format::Wkt, "osm_w", objects),
            osm_x: materialize(write_osm_xml(&ds), Format::OsmXml, "osm_x", objects),
            osm_rep: materialize(write_geojson(&rep), Format::GeoJson, "osm_rep", objects),
            objects,
        }
    }

    /// The query region used by containment/aggregation experiments
    /// (covers roughly a quarter of the generated world).
    pub fn region(&self) -> atgis_geometry::Mbr {
        atgis_geometry::Mbr::new(-10.0, 40.0, 0.0, 50.0)
    }
}

/// Heap-backed dataset, or a temp-file memory mapping when
/// [`mmap_enabled`]. The spill file is unlinked as soon as the
/// mapping is live (the mapping keeps the pages reachable), so
/// repeated runs do not accumulate files and concurrent runs cannot
/// truncate a file another process is scanning; the name carries the
/// process id for the short window the file exists.
fn materialize(bytes: Vec<u8>, format: Format, tag: &str, objects: usize) -> Dataset {
    if mmap_enabled() {
        let path = std::env::temp_dir().join(format!(
            "atgis_workload_{tag}_{objects}_{}.dat",
            std::process::id()
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

/// Builds a `Synth(n, σ)` GeoJSON dataset.
pub fn synth_dataset(objects: usize, sigma: f64) -> Dataset {
    let ds = SynthConfig {
        objects,
        sigma,
        ..Default::default()
    }
    .generate();
    Dataset::from_bytes(write_geojson(&ds), Format::GeoJson)
}

/// Times one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Times the minimum of `n` invocations (cheap noise suppression for
/// the experiments binary; Criterion handles the statistics in the
/// benches).
pub fn time_best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..n.max(1) {
        let (v, d) = time_once(&mut f);
        if d < best {
            best = d;
        }
        out = Some(v);
    }
    (out.expect("n >= 1"), best)
}

/// MB/s throughput for processing `bytes` in `elapsed`.
pub fn throughput_mbs(bytes: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64()
}

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), `None` off-Linux. A high-water mark: once a
/// phase has spiked it, later phases cannot lower it — order
/// RSS-sensitive measurements accordingly.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_all_formats() {
        let w = Workload::build(30);
        assert!(!w.osm_g.is_empty());
        assert!(!w.osm_w.is_empty());
        assert!(!w.osm_x.is_empty());
        assert!(w.osm_rep.len() > 3 * w.osm_g.len());
        assert_eq!(w.objects, 30);
    }

    #[test]
    fn throughput_math() {
        let t = throughput_mbs(2 * 1024 * 1024, Duration::from_secs(1));
        assert!((t - 2.0).abs() < 1e-9);
        assert!(throughput_mbs(1, Duration::ZERO).is_infinite());
    }

    #[test]
    fn timing_helpers_run() {
        let (v, d) = time_best_of(3, || 42);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }
}

/// Call-site sugar over the unified [`ExecOptions`](atgis::ExecOptions)
/// request API, so the figure benches and the `experiments` binary can
/// drive the engine with one-call helpers instead of repeating the
/// `run(...)` → [`RunOutcome`](atgis::RunOutcome) plumbing at every
/// timed closure.
mod runsugar {
    use atgis::scheduler::DatasetId;
    use atgis::stats::{BatchStats, SchedulerStats, StreamStats};
    use atgis::stream::ChunkSource;
    use atgis::{
        Dataset, Engine, ExecOptions, Query, QueryResult, QueryScheduler, QuerySession, Result,
    };
    use atgis_formats::Format;

    /// Engine-level sugar over [`Engine::run`].
    pub trait RunExt {
        /// One query, default options.
        fn exec1(&self, query: &Query, dataset: &Dataset) -> Result<QueryResult>;
        /// A batch, default options, collapsed.
        fn execb(&self, queries: &[Query], dataset: &Dataset) -> Result<Vec<QueryResult>>;
        /// A batch with the amortisation breakdown.
        fn execb_timed(
            &self,
            queries: &[Query],
            dataset: &Dataset,
        ) -> Result<(Vec<QueryResult>, BatchStats)>;
    }

    impl RunExt for Engine {
        fn exec1(&self, query: &Query, dataset: &Dataset) -> Result<QueryResult> {
            self.run(std::slice::from_ref(query), dataset, &ExecOptions::new())?
                .into_single()
        }

        fn execb(&self, queries: &[Query], dataset: &Dataset) -> Result<Vec<QueryResult>> {
            self.run(queries, dataset, &ExecOptions::new())?.collapse()
        }

        fn execb_timed(
            &self,
            queries: &[Query],
            dataset: &Dataset,
        ) -> Result<(Vec<QueryResult>, BatchStats)> {
            let out = self.run(queries, dataset, &ExecOptions::new().timed())?;
            let stats = out.batch.clone().expect("timed run reports batch stats");
            Ok((out.collapse()?, stats))
        }
    }

    /// [`RunExt`]'s session-level counterpart over [`QuerySession::run`].
    pub trait SessionRunExt {
        /// A batch, default options, collapsed.
        fn execb(&self, queries: &[Query]) -> Result<Vec<QueryResult>>;
        /// A batch with the amortisation breakdown.
        fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)>;
    }

    impl SessionRunExt for QuerySession {
        fn execb(&self, queries: &[Query]) -> Result<Vec<QueryResult>> {
            self.run(queries, &ExecOptions::new())?.collapse()
        }

        fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)> {
            let out = self.run(queries, &ExecOptions::new().timed())?;
            let stats = out.batch.clone().expect("timed run reports batch stats");
            Ok((out.collapse()?, stats))
        }
    }

    /// [`RunExt`]'s scheduler-level counterpart over
    /// [`QueryScheduler::run`].
    pub trait SchedRunExt {
        /// A batch, default options, collapsed.
        fn execb(&self, id: DatasetId, queries: &[Query]) -> Result<Vec<QueryResult>>;
        /// A batch with the scheduling breakdown.
        fn execb_timed(
            &self,
            id: DatasetId,
            queries: &[Query],
        ) -> Result<(Vec<QueryResult>, SchedulerStats)>;
    }

    impl SchedRunExt for QueryScheduler {
        fn execb(&self, id: DatasetId, queries: &[Query]) -> Result<Vec<QueryResult>> {
            self.run(id, queries, &ExecOptions::new())?.collapse()
        }

        fn execb_timed(
            &self,
            id: DatasetId,
            queries: &[Query],
        ) -> Result<(Vec<QueryResult>, SchedulerStats)> {
            let out = self.run(id, queries, &ExecOptions::new().timed())?;
            let stats = out
                .scheduler
                .clone()
                .expect("timed run reports scheduler stats");
            Ok((out.collapse()?, stats))
        }
    }

    /// [`RunExt`]'s streaming counterpart over
    /// [`Engine::run_streaming`].
    pub trait StreamRunExt {
        /// One query over a chunk stream, default options.
        fn stream1(
            &self,
            query: &Query,
            source: &mut dyn ChunkSource,
            format: Format,
        ) -> Result<QueryResult>;
        /// A streamed batch with batch + stream statistics.
        fn streamb_timed(
            &self,
            queries: &[Query],
            source: &mut dyn ChunkSource,
            format: Format,
        ) -> Result<(Vec<QueryResult>, BatchStats, StreamStats)>;
    }

    impl StreamRunExt for Engine {
        fn stream1(
            &self,
            query: &Query,
            source: &mut dyn ChunkSource,
            format: Format,
        ) -> Result<QueryResult> {
            self.run_streaming(
                std::slice::from_ref(query),
                source,
                format,
                &ExecOptions::new(),
            )?
            .into_single()
        }

        fn streamb_timed(
            &self,
            queries: &[Query],
            source: &mut dyn ChunkSource,
            format: Format,
        ) -> Result<(Vec<QueryResult>, BatchStats, StreamStats)> {
            let out = self.run_streaming(queries, source, format, &ExecOptions::new().timed())?;
            let batch = out.batch.clone().expect("timed run reports batch stats");
            let stream = out
                .stream
                .clone()
                .expect("streaming run reports stream stats");
            Ok((out.collapse()?, batch, stream))
        }
    }
}

pub use runsugar::{RunExt, SchedRunExt, SessionRunExt, StreamRunExt};
