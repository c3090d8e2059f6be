//! Test-only sugar over the unified [`ExecOptions`] entry points:
//! "execute this and give me the collapsed result" without spelling
//! the options struct at every call site. Everything here delegates
//! to [`Engine::run`] / [`QuerySession::run`] /
//! [`QueryScheduler::run`].

use crate::batch::QuerySession;
use crate::dataset::Dataset;
use crate::engine::Engine;
use crate::exec::ExecOptions;
use crate::query::Query;
use crate::result::QueryResult;
use crate::scheduler::{DatasetId, QueryScheduler};
use crate::stats::{BatchStats, SchedulerStats};
use crate::Result;
use std::sync::{Mutex, MutexGuard};

/// Failpoints are process-wide: a unit test that arms one, or runs
/// code that fires one (snapshot saves and loads), holds this gate so
/// an armed fault only ever fires inside the test that armed it.
pub(crate) fn serialised() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One-query / collapsed-batch helpers for [`Engine`].
pub(crate) trait RunExt {
    fn exec1(&self, query: &Query, dataset: &Dataset) -> Result<QueryResult>;
    fn execb(&self, queries: &[Query], dataset: &Dataset) -> Result<Vec<QueryResult>>;
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

/// The same sugar for [`QuerySession`].
pub(crate) trait SessionRunExt {
    fn exec1(&self, query: &Query) -> Result<QueryResult>;
    fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)>;
}

impl SessionRunExt for QuerySession {
    fn exec1(&self, query: &Query) -> Result<QueryResult> {
        self.run(std::slice::from_ref(query), &ExecOptions::new())?
            .into_single()
    }

    fn execb_timed(&self, queries: &[Query]) -> Result<(Vec<QueryResult>, BatchStats)> {
        let out = self.run(queries, &ExecOptions::new().timed())?;
        let stats = out.batch.clone().expect("timed run reports batch stats");
        Ok((out.collapse()?, stats))
    }
}

/// The same sugar for [`QueryScheduler`].
pub(crate) trait SchedRunExt {
    fn exec1(&self, id: DatasetId, query: &Query) -> Result<QueryResult>;
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
