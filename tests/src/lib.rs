//! Integration test crate for AT-GIS (tests live in `tests/tests/`).
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as the integration-test crate of the four-layer design,
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

use atgis::scheduler::DatasetId;
use atgis::stats::{BatchStats, SchedulerStats};
use atgis::{
    Dataset, Engine, ExecOptions, Query, QueryResult, QueryScheduler, QuerySession, Result,
};
use atgis_baselines::{sequential, BaselineAnswer, BaselineQuery};
use std::sync::{Mutex, MutexGuard};

pub mod shapes;

/// Failpoints are process-wide: while one test has a point armed, a
/// concurrent test's scan, snapshot save or load would fire it. Every
/// test of a binary that arms a failpoint holds this gate, so an armed
/// fault only ever fires inside the test that armed it.
pub fn serialised() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Test sugar over the unified [`ExecOptions`] API: "execute this,
/// default options, collapsed result". Every method delegates to
/// [`Engine::run`] / [`QuerySession::run`] / [`QueryScheduler::run`].
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

/// [`RunExt`]'s session-level counterpart.
pub trait SessionRunExt {
    /// One query, default options.
    fn exec1(&self, query: &Query) -> Result<QueryResult>;
    /// A batch, default options, collapsed.
    fn execb(&self, queries: &[Query]) -> Result<Vec<QueryResult>>;
    /// A batch with the amortisation breakdown.
    fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)>;
}

impl SessionRunExt for QuerySession {
    fn exec1(&self, query: &Query) -> Result<QueryResult> {
        self.run(std::slice::from_ref(query), &ExecOptions::new())?
            .into_single()
    }

    fn execb(&self, queries: &[Query]) -> Result<Vec<QueryResult>> {
        self.run(queries, &ExecOptions::new())?.collapse()
    }

    fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)> {
        let out = self.run(queries, &ExecOptions::new().timed())?;
        let stats = out.batch.clone().expect("timed run reports batch stats");
        Ok((out.collapse()?, stats))
    }
}

/// [`RunExt`]'s scheduler-level counterpart.
pub trait SchedRunExt {
    /// One query, default options.
    fn exec1(&self, id: DatasetId, query: &Query) -> Result<QueryResult>;
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
    fn exec1(&self, id: DatasetId, query: &Query) -> Result<QueryResult> {
        self.run(id, std::slice::from_ref(query), &ExecOptions::new())?
            .into_single()
    }

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

use atgis::stats::StreamStats;
use atgis::stream::ChunkSource;
use atgis_formats::{Format, Mode};

/// The modes a test matrix sweeps for `format`: PAT and FAT for
/// GeoJSON; one for WKT and OSM XML, which always split at newlines.
pub fn modes(format: Format) -> &'static [Mode] {
    match format {
        Format::GeoJson => &[Mode::Pat, Mode::Fat],
        Format::Wkt | Format::OsmXml => &[Mode::Pat],
    }
}

/// [`RunExt`]'s streaming counterpart over [`Engine::run_streaming`].
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

/// The torture RNG: deterministic, replayable via `ATGIS_FAULT_SEED`.
pub struct XorShift64(u64);

impl XorShift64 {
    /// Seeded from `ATGIS_FAULT_SEED`, or a fixed default; prints the
    /// seed so a failing run can be replayed.
    pub fn from_env() -> XorShift64 {
        let seed = std::env::var("ATGIS_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5eed_cafe_u64);
        println!("torture seed: {seed} (replay with ATGIS_FAULT_SEED={seed})");
        XorShift64(seed.max(1))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A uniform-ish draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `atgis_baselines::sequential` oracle's answer to each query
/// over `dataset` — one thread, one parse pass, nested-loop join, no
/// code shared with the engine's executor. `None` for combined
/// queries, which the oracle has no counterpart for.
pub fn oracle_answers(dataset: &Dataset, queries: &[Query]) -> Vec<Option<BaselineAnswer>> {
    queries
        .iter()
        .map(|q| {
            let baseline = match q {
                Query::Containment { region } => BaselineQuery::Containment(region.clone()),
                Query::Aggregation { region, .. } => BaselineQuery::Aggregation(region.clone()),
                Query::Join { id_threshold } => BaselineQuery::Join(*id_threshold),
                Query::Combined { .. } => return None,
            };
            Some(
                sequential::execute(dataset.bytes(), dataset.format(), &baseline)
                    .expect("the oracle parses its own input"),
            )
        })
        .collect()
}

/// Asserts every result agrees with its [`oracle_answers`] entry:
/// identical match ids and join pairs, identical counts, and area and
/// perimeter sums within float-summation-order noise (the oracle folds
/// left to right).
pub fn assert_agrees_with_oracle(
    answers: &[Option<BaselineAnswer>],
    results: &[QueryResult],
    label: &str,
) {
    assert_eq!(
        answers.len(),
        results.len(),
        "{label}: one answer per query"
    );
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    for (i, (answer, got)) in answers.iter().zip(results).enumerate() {
        match (answer, got) {
            (None, _) => {}
            (Some(BaselineAnswer::Matches(want)), QueryResult::Matches(matches)) => {
                let mut ids: Vec<u64> = matches.iter().map(|m| m.id).collect();
                ids.sort_unstable();
                assert_eq!(&ids, want, "{label}: query {i} matches != oracle");
            }
            (
                Some(BaselineAnswer::Aggregate(count, area, perimeter)),
                QueryResult::Aggregate(v),
            ) => {
                assert_eq!(v.count, *count, "{label}: query {i} count != oracle");
                assert!(
                    close(v.total_area, *area) && close(v.total_perimeter, *perimeter),
                    "{label}: query {i} sums {v:?} != oracle ({area}, {perimeter})"
                );
            }
            (Some(BaselineAnswer::Pairs(want)), QueryResult::Joined(pairs)) => {
                let mut got: Vec<(u64, u64)> =
                    pairs.iter().map(|p| (p.left_id, p.right_id)).collect();
                got.sort_unstable();
                got.dedup();
                let mut want = want.clone();
                want.dedup();
                assert_eq!(got, want, "{label}: query {i} pairs != oracle");
            }
            (Some(want), got) => panic!("{label}: query {i} answered {got:?}, oracle {want:?}"),
        }
    }
}
