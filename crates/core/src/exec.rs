//! The unified request API: one [`ExecOptions`] consumed by one `run`
//! entry point per layer.
//!
//! Cancellation, deadline, timing, per-query fault isolation,
//! scheduler priority and shard fan-out are fields on [`ExecOptions`],
//! not method names, and every layer keeps exactly one entry point:
//! [`crate::Engine::run`] / [`crate::Engine::run_streaming`],
//! [`crate::batch::QuerySession::run`], and
//! [`crate::scheduler::QueryScheduler::run`] /
//! [`crate::scheduler::QueryScheduler::run_multi`]. All of them return
//! a [`RunOutcome`].
//!
//! ```
//! use atgis::{Dataset, Engine, ExecOptions, Query};
//! use atgis_formats::Format;
//! use atgis_geometry::Mbr;
//!
//! let data = br#"{"type":"FeatureCollection","features":[
//!   {"type":"Feature","properties":{"building":"yes"},
//!    "geometry":{"type":"Polygon","coordinates":[[[0,0],[2,0],[2,2],[0,2],[0,0]]]}}]}"#;
//! let dataset = Dataset::from_bytes(data.to_vec(), Format::GeoJson);
//! let engine = Engine::builder().build();
//! let queries = [Query::containment(Mbr::new(-1.0, -1.0, 3.0, 3.0))];
//!
//! let outcome = engine.run(&queries, &dataset, &ExecOptions::new())?;
//! assert_eq!(outcome.outcomes.len(), 1);
//! # Ok::<(), atgis::Error>(())
//! ```

use std::time::Duration;

use crate::cancel::CancelToken;
#[cfg(test)]
use crate::result::QueryError;
use crate::result::{QueryOutcome, QueryResult};
use crate::scheduler::Priority;
use crate::stats::{BatchStats, SchedulerStats, ShardStats, StreamStats};
use crate::{Error, Result};

/// How query failures inside a batch surface to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isolation {
    /// The first failing query fails the whole `run` call.
    #[default]
    WholeBatch,
    /// Failures are tombstoned per query: [`RunOutcome::outcomes`]
    /// carries an `Err` for the failing query and an `Ok` for every
    /// other (the `_isolated` semantics).
    PerQuery,
}

/// One request shape for every execution layer. Construct with
/// [`ExecOptions::new`] and the builder methods, or as a struct
/// literal (all fields are public).
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Cooperative cancellation handle; `None` runs uncancellable.
    pub token: Option<CancelToken>,
    /// Time budget for the call. Composes with `token`: a child token
    /// is derived that trips on whichever comes first.
    pub deadline: Option<Duration>,
    /// Collect and return timing breakdowns ([`RunOutcome::batch`] /
    /// [`RunOutcome::scheduler`] / [`RunOutcome::stream`] stay `None`
    /// when `false`).
    pub timing: bool,
    /// Whole-batch failure vs per-query tombstoning.
    pub isolation: Isolation,
    /// SLO class applied to every query (scheduler layer; ignored by
    /// the engine/session layers, which have no admission control).
    pub priority: Priority,
    /// Scatter–gather fan-out: the number of byte-range shards (the
    /// dataset may yield fewer marker-aligned shards than requested).
    /// 1, and the default 0, run single-node; streaming entry points
    /// ignore it, since a stream has no byte length to split until
    /// the scan is over.
    pub shards: usize,
}

impl ExecOptions {
    /// Defaults: uncancellable, no deadline, no timing, whole-batch
    /// failure, interactive priority, single-node execution.
    pub fn new() -> Self {
        ExecOptions::default()
    }

    /// Attach a cancellation token (cloned; all clones share state).
    /// The scan observes it at region/block granularity, so a
    /// cancelled (or past-deadline) run stops within one in-flight work
    /// unit and returns [`Error::Cancelled`] /
    /// [`Error::DeadlineExceeded`]; the engine, its pool and any shared
    /// caches stay fully usable afterwards.
    ///
    /// ```
    /// use atgis::{CancelToken, Dataset, Engine, Error, ExecOptions, Query};
    /// use atgis_formats::Format;
    /// use atgis_geometry::Mbr;
    ///
    /// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(9).generate(50));
    /// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
    /// let engine = Engine::builder().build();
    /// let token = CancelToken::new();
    /// token.cancel();
    /// let err = engine
    ///     .run(
    ///         &[Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0))],
    ///         &dataset,
    ///         &ExecOptions::new().cancellable(&token),
    ///     )
    ///     .unwrap_err();
    /// assert!(matches!(err, Error::Cancelled));
    /// ```
    pub fn cancellable(mut self, token: &CancelToken) -> Self {
        self.token = Some(token.clone());
        self
    }

    /// Attach an optional cancellation token (convenience for callers
    /// holding `Option<&CancelToken>`).
    pub fn cancellable_opt(mut self, token: Option<&CancelToken>) -> Self {
        self.token = token.cloned();
        self
    }

    /// Set a time budget for the call.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Collect timing breakdowns.
    pub fn timed(mut self) -> Self {
        self.timing = true;
        self
    }

    /// Tombstone failures per query instead of failing the batch.
    pub fn isolated(mut self) -> Self {
        self.isolation = Isolation::PerQuery;
        self
    }

    /// Set the scheduler SLO class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Scatter–gather over `n` shards.
    pub fn sharded(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// The token execution actually polls: the caller's token, a
    /// deadline-derived child of it when both are set, or a fresh
    /// deadline token when only a budget is given.
    pub(crate) fn effective_token(&self) -> Option<CancelToken> {
        match (&self.token, self.deadline) {
            (Some(t), Some(d)) => Some(t.child_with_deadline(d)),
            (Some(t), None) => Some(t.clone()),
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
            (None, None) => None,
        }
    }
}

/// What a `run` call produced: per-query outcomes in submission order
/// plus whichever stats layers the call traversed (populated only when
/// [`ExecOptions::timing`] was set).
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Per-query results, in submission order. Under
    /// [`Isolation::WholeBatch`] every entry is `Ok` (the call itself
    /// failed otherwise); under [`Isolation::PerQuery`] failed queries
    /// carry their [`crate::result::QueryError`] tombstone.
    pub outcomes: Vec<QueryOutcome>,
    /// Shared-scan batch breakdown (engine / session layers; the
    /// scheduler reports per-wave batches inside `scheduler` instead).
    pub batch: Option<BatchStats>,
    /// Scheduler accounting (dedup, cache hits, waves, latencies).
    pub scheduler: Option<SchedulerStats>,
    /// Streaming ingest accounting (streaming entry points only).
    pub stream: Option<StreamStats>,
}

impl RunOutcome {
    /// Unwraps every outcome, failing on the first tombstoned query —
    /// the bridge from [`Isolation::PerQuery`] back to collapse
    /// semantics.
    pub fn collapse(self) -> Result<Vec<QueryResult>> {
        self.outcomes
            .into_iter()
            .map(|o| o.map_err(Error::from))
            .collect()
    }

    /// Unwraps a single-query run.
    ///
    /// # Panics
    /// Panics when the run carried more than one query.
    pub fn into_single(self) -> Result<QueryResult> {
        assert!(
            self.outcomes.len() == 1,
            "into_single on a {}-query outcome",
            self.outcomes.len()
        );
        let mut outcomes = self.outcomes;
        outcomes.pop().expect("one outcome").map_err(Error::from)
    }

    /// The scatter–gather accounting, when the run was sharded and
    /// timed (from `batch`, or from the first sharded scheduler wave).
    pub fn shard_stats(&self) -> Option<&ShardStats> {
        if let Some(s) = self.batch.as_ref().and_then(|b| b.shards.as_ref()) {
            return Some(s);
        }
        self.scheduler
            .as_ref()?
            .waves
            .iter()
            .find_map(|w| w.batch.shards.as_ref())
    }
}

/// Applies isolation and timing policy to raw per-query outcomes —
/// the single exit path every `run` entry point funnels through.
pub(crate) fn finish_run(
    outcomes: Vec<QueryOutcome>,
    batch: Option<BatchStats>,
    scheduler: Option<SchedulerStats>,
    stream: Option<StreamStats>,
    opts: &ExecOptions,
) -> Result<RunOutcome> {
    if opts.isolation == Isolation::WholeBatch {
        if let Some(err) = outcomes.iter().find_map(|o| o.as_ref().err()) {
            return Err(Error::from(err.clone()));
        }
    }
    Ok(RunOutcome {
        outcomes,
        batch: if opts.timing { batch } else { None },
        scheduler: if opts.timing { scheduler } else { None },
        stream: if opts.timing { stream } else { None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_token_composes_token_and_deadline() {
        let opts = ExecOptions::new();
        assert!(opts.effective_token().is_none());

        let t = CancelToken::new();
        let opts = ExecOptions::new().cancellable(&t);
        let eff = opts.effective_token().unwrap();
        t.cancel();
        assert!(eff.is_cancelled(), "plain token passes through");

        let opts = ExecOptions::new().with_deadline(Duration::ZERO);
        let eff = opts.effective_token().unwrap();
        assert!(eff.check().is_err(), "deadline-only budget trips");

        let t = CancelToken::new();
        let opts = ExecOptions::new()
            .cancellable(&t)
            .with_deadline(Duration::from_secs(3600));
        let eff = opts.effective_token().unwrap();
        assert!(eff.check().is_ok());
        t.cancel();
        assert!(eff.is_cancelled(), "parent cancel reaches the child");
        assert!(opts.token.unwrap().deadline().is_none());
    }

    #[test]
    fn whole_batch_isolation_promotes_first_error() {
        let outcomes: Vec<QueryOutcome> = vec![
            Ok(QueryResult::Matches(Vec::new())),
            Err(QueryError::Panicked("boom".into())),
        ];
        let err = finish_run(outcomes.clone(), None, None, None, &ExecOptions::new())
            .expect_err("whole-batch fails");
        assert!(matches!(err, Error::TaskPanicked(_)));

        let out = finish_run(outcomes, None, None, None, &ExecOptions::new().isolated())
            .expect("per-query isolation keeps tombstones");
        assert_eq!(out.outcomes.len(), 2);
        assert!(out.outcomes[0].is_ok());
        assert!(out.outcomes[1].is_err());
    }

    #[test]
    fn timing_gate_strips_stats() {
        let stats = BatchStats {
            queries: 1,
            ..BatchStats::default()
        };
        let out = finish_run(
            Vec::new(),
            Some(stats.clone()),
            None,
            None,
            &ExecOptions::new(),
        )
        .unwrap();
        assert!(out.batch.is_none());
        let out = finish_run(
            Vec::new(),
            Some(stats),
            None,
            None,
            &ExecOptions::new().timed(),
        )
        .unwrap();
        assert_eq!(out.batch.unwrap().queries, 1);
    }
}
