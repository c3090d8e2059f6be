//! Multi-tenant query scheduling: admission control, predicate
//! deduplication and cross-batch aggregate reuse over the shared-scan
//! batch layer.
//!
//! [`crate::batch`] amortises the structural scan *within* one batch;
//! this module decides **what each batch should contain** and reuses
//! work *across* batches and *across* tenants. A [`QueryScheduler`]
//! sits between callers (a multi-tenant server front end) and
//! [`QuerySession::run`], applying three policies
//! before any work is dispatched:
//!
//! 1. **Predicate deduplication** — queries with an identical
//!    (region, operator-class) key (the full predicate: region
//!    geometry, requested metrics, distance model, join threshold,
//!    perimeter bounds) share **one** aggregate sink in the underlying
//!    shared scan; the finished result fans out to every submitter on
//!    completion. Ten tenants asking for the same tile cost one
//!    query's work.
//! 2. **Cross-batch aggregate reuse** — a bounded [`AggregateCache`]
//!    keyed by predicate × dataset **generation** holds finished
//!    single-pass results (containment matches, aggregation values),
//!    so repeated traffic skips the scan entirely — the single-pass
//!    mirror of the join-side [`crate::batch::IndexCache`]. Replacing
//!    a dataset ([`QueryScheduler::update`]) bumps its generation and
//!    drops every cached aggregate for it, so a mutated or re-ingested
//!    dataset can never serve stale answers.
//! 3. **Admission control** — each query is costed (in
//!    scan-equivalents, from the dataset's size, the query region's
//!    selectivity against the partition-grid extent, and — once a join
//!    has run — the measured join/scan cost ratio of this dataset).
//!    A scan-heavy outlier is admitted into its **own wave** so the
//!    cheap majority amortises one shared pass without stalling behind
//!    it; per-wave [`crate::stats::WaveStats`] and the scheduler-level
//!    completion-latency percentiles make the stall-free claim
//!    measurable.
//!
//! Because every wave executes through the bit-exact shared-scan
//! batch machinery, deduplication shares the *same* sink a solo run
//! would build, and cached results are the deterministic outputs of
//! earlier identical executions, scheduled results are
//! **bit-identical** to running each query alone through
//! [`Engine::run`] — the differential suite holds the scheduler to
//! that across threads × modes × formats.
//!
//! The scheduler also lifts batch execution to **multiple datasets**
//! in one call: [`QueryScheduler::run_multi`] takes
//! `(dataset, query)` pairs, groups them per dataset, routes each
//! group through the policies above, and returns results in
//! submission order.
//!
//! ```
//! use atgis::{Dataset, Engine, ExecOptions, Query, QueryScheduler};
//! use atgis_formats::Format;
//! use atgis_geometry::Mbr;
//!
//! let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(7).generate(120));
//! let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
//! let scheduler = QueryScheduler::new(Engine::builder().threads(2).build());
//! let id = scheduler.register(dataset);
//!
//! // Four tenants, two distinct predicates: one shared scan, two sinks.
//! let tile = Query::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0));
//! let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
//! let batch = vec![tile.clone(), world.clone(), tile.clone(), world.clone()];
//! let out = scheduler.run(id, &batch, &ExecOptions::new().timed()).unwrap();
//! let stats = out.scheduler.clone().unwrap();
//! let results = out.collapse().unwrap();
//! assert_eq!(results[0], results[2]);
//! assert_eq!(stats.dedup_hits, 2);
//!
//! // The same traffic again: served from the aggregate cache, no scan.
//! let warm = scheduler.run(id, &batch, &ExecOptions::new().timed()).unwrap();
//! let warm = warm.scheduler.clone().unwrap();
//! assert_eq!(warm.cache_hits, 4);
//! assert_eq!(warm.scan_passes, 0);
//! ```

use crate::batch::QuerySession;
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::engine::Engine;
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::pool::recover;
use crate::query::{FilterStrategy, Metric, Query, ScanClass};
use crate::result::{QueryError, QueryOutcome, QueryResult};
use crate::stats::{SchedulerStats, WaveStats};
use crate::{Error, Result};
use atgis_geometry::Polygon;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Handle to a dataset registered with a [`QueryScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetId(u64);

/// The SLO class of a scheduled query — what a tenant *bought*, as
/// opposed to what the query *costs* (admission's scan-equivalents).
/// Admission orders waves **by class before cost**: every
/// `Interactive` wave runs before any `Batch` wave, so an interactive
/// query never queues behind a batch outlier's solo wave, and a
/// serving front end can reject `Batch` submissions under load
/// (backpressure) while still admitting interactive traffic.
///
/// The derived order (`Interactive < Batch`) is the scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: scheduled ahead of every batch
    /// wave. The default — an unclassified query is someone waiting.
    #[default]
    Interactive,
    /// Throughput traffic: runs after interactive waves and is the
    /// class load-shedding rejects first.
    Batch,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// One `(dataset, query)` pair of a multi-dataset batch
/// ([`QueryScheduler::run_multi`]), carrying the submitting
/// tenant's SLO class.
#[derive(Debug, Clone)]
pub struct ScheduledQuery {
    /// Which registered dataset the query runs against.
    pub dataset: DatasetId,
    /// The query itself.
    pub query: Query,
    /// The SLO class admission orders waves by
    /// ([`Priority::Interactive`] by default).
    pub priority: Priority,
}

impl ScheduledQuery {
    /// Pairs a query with the dataset it targets, at
    /// [`Priority::Interactive`].
    pub fn new(dataset: DatasetId, query: Query) -> Self {
        ScheduledQuery {
            dataset,
            query,
            priority: Priority::Interactive,
        }
    }

    /// Pairs a query with its dataset at an explicit SLO class.
    pub fn with_priority(dataset: DatasetId, query: Query, priority: Priority) -> Self {
        ScheduledQuery {
            dataset,
            query,
            priority,
        }
    }
}

/// Finished aggregates the cache of [`QueryScheduler::new`] retains.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Admission's outlier bound: a query is admitted to the shared wave
/// only while its estimated cost stays within this ratio of the wave
/// built so far (ascending-cost admission); costlier queries run in
/// their own waves. A split wave pays an extra structural pass, so the
/// bound is loose: only a query that out-costs its company several
/// times over is isolated.
const OUTLIER_RATIO: f64 = 4.0;

/// Prior cost of a join-class query, in scan-equivalents, used until
/// the scheduler has observed a real join on the dataset.
const JOIN_COST_PRIOR: f64 = 4.0;

/// The canonical identity of a query's predicate — the dedup and
/// cache key. Two queries with equal keys are guaranteed to produce
/// bit-identical results on the same dataset generation, because the
/// key covers every parameter their aggregate sinks read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryKey {
    Containment {
        region: RegionKey,
    },
    Aggregation {
        region: RegionKey,
        want_area: bool,
        want_perimeter: bool,
        model: u8,
        strategy: u8,
    },
    Join {
        threshold: u64,
    },
    Combined {
        threshold: u64,
        min_perimeter: u64,
        max_perimeter: u64,
    },
}

/// A polygon (exterior ring + holes) as exact f64 bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RegionKey(pub(crate) Vec<Vec<(u64, u64)>>);

fn region_key(region: &Polygon) -> RegionKey {
    let ring = |r: &atgis_geometry::polygon::Ring| {
        r.points
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut rings = Vec::with_capacity(1 + region.holes.len());
    rings.push(ring(&region.exterior));
    rings.extend(region.holes.iter().map(ring));
    RegionKey(rings)
}

fn query_key(q: &Query) -> QueryKey {
    match q {
        Query::Containment { region } => QueryKey::Containment {
            region: region_key(region),
        },
        Query::Aggregation {
            region,
            metrics,
            model,
            strategy,
        } => QueryKey::Aggregation {
            region: region_key(region),
            // MetricsAgg only reads whether area/perimeter are
            // requested (count is always tracked), so the key
            // normalises the metric list to exactly that.
            want_area: metrics.contains(&Metric::Area),
            want_perimeter: metrics.contains(&Metric::Perimeter),
            model: *model as u8,
            strategy: match strategy {
                FilterStrategy::Streaming => 0,
                FilterStrategy::Buffered => 1,
                FilterStrategy::Auto => 2,
            },
        },
        Query::Join { id_threshold } => QueryKey::Join {
            threshold: *id_threshold,
        },
        Query::Combined {
            id_threshold,
            min_perimeter_left,
            max_perimeter_right,
        } => QueryKey::Combined {
            threshold: *id_threshold,
            min_perimeter: min_perimeter_left.to_bits(),
            max_perimeter: max_perimeter_right.to_bits(),
        },
    }
}

/// Cache key: predicate × dataset × dataset generation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AggCacheKey {
    dataset: DatasetId,
    generation: u64,
    query: QueryKey,
}

struct CachedAggregate {
    result: QueryResult,
    last_used: u64,
}

struct AggCacheInner {
    map: HashMap<AggCacheKey, CachedAggregate>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Bounded cache of finished single-pass aggregates, keyed by
/// predicate × dataset generation — the single-pass counterpart of
/// the join-side [`crate::batch::IndexCache`]. Entries are evicted
/// least-recently-used beyond the configured capacity, and every
/// entry of a dataset is dropped the moment its generation moves
/// ([`QueryScheduler::update`]), so a re-ingested dataset can never
/// serve stale aggregates.
pub struct AggregateCache {
    inner: Mutex<AggCacheInner>,
    capacity: usize,
}

/// Observability counters of an [`AggregateCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateCacheStats {
    /// Live entries.
    pub entries: usize,
    /// Capacity bound (entries).
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped by generation invalidation.
    pub invalidations: u64,
}

impl AggregateCache {
    /// An empty cache retaining at most `capacity` aggregates.
    pub fn new(capacity: usize) -> Self {
        AggregateCache {
            inner: Mutex::new(AggCacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                invalidations: 0,
            }),
            capacity,
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> AggregateCacheStats {
        let inner = recover(self.inner.lock());
        AggregateCacheStats {
            entries: inner.map.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
        }
    }

    fn get(&self, key: &AggCacheKey) -> Option<QueryResult> {
        let mut inner = recover(self.inner.lock());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let r = entry.result.clone();
                inner.hits += 1;
                Some(r)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: AggCacheKey, result: QueryResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = recover(self.inner.lock());
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            CachedAggregate {
                result,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, v)| v.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache over capacity is non-empty");
            inner.map.remove(&oldest);
            inner.evictions += 1;
        }
    }

    /// Every cached aggregate belonging to `dataset`, for snapshot
    /// encoding. Entries of superseded generations were dropped at
    /// invalidation time, so everything returned is current.
    pub(crate) fn export_dataset(&self, dataset: DatasetId) -> Vec<(QueryKey, QueryResult)> {
        let inner = recover(self.inner.lock());
        inner
            .map
            .iter()
            .filter(|(k, _)| k.dataset == dataset)
            .map(|(k, v)| (k.query.clone(), v.result.clone()))
            .collect()
    }

    /// Drops every cached aggregate belonging to `dataset` (any
    /// generation).
    fn invalidate_dataset(&self, dataset: DatasetId) {
        let mut inner = recover(self.inner.lock());
        let before = inner.map.len();
        inner.map.retain(|k, _| k.dataset != dataset);
        inner.invalidations += (before - inner.map.len()) as u64;
    }
}

/// Per-dataset scheduling state: the serving session (with its warm
/// partition-index cache), the generation counter the aggregate cache
/// keys on, and the measured join cost the admission model refines
/// itself with.
struct SchedEntry {
    session: QuerySession,
    generation: u64,
    /// Exponentially-weighted measured cost of a join-class query on
    /// this dataset, in scan-equivalents. `None` until a join has
    /// actually run; admission then stops guessing
    /// ([`JOIN_COST_PRIOR`]) and uses evidence.
    observed_join_cost: Mutex<Option<f64>>,
}

impl SchedEntry {
    fn new(session: QuerySession, generation: u64) -> Arc<SchedEntry> {
        Arc::new(SchedEntry {
            session,
            generation,
            observed_join_cost: Mutex::new(None),
        })
    }

    fn observe_join_cost(&self, scan: Duration, join_wall: Duration, threads: usize) {
        let scan_s = scan.as_secs_f64();
        if scan_s <= 0.0 {
            return;
        }
        // `join_wall` sums **worker time** across the flattened
        // (query × partition) fan-out, while `scan` is elapsed phase
        // time; divide by the worker count so the ratio compares
        // elapsed-equivalents — otherwise a parallel join would be
        // costed ~`threads`× too high and permanently isolated.
        let wall_s = join_wall.as_secs_f64() / threads.max(1) as f64;
        let units = (wall_s / scan_s).max(1.0);
        let mut slot = recover(self.observed_join_cost.lock());
        *slot = Some(match *slot {
            Some(prev) => 0.5 * prev + 0.5 * units,
            None => units,
        });
    }
}

/// The multi-tenant scheduler: owns one [`Engine`], any number of
/// registered datasets (each a [`QuerySession`] with a warm partition
/// index) and a shared [`AggregateCache`], and applies the dedup and
/// admission policies to every batch. See the module docs for the
/// policy walk-through and a usage example.
pub struct QueryScheduler {
    engine: Engine,
    cache: AggregateCache,
    entries: Mutex<HashMap<DatasetId, Arc<SchedEntry>>>,
    next_id: AtomicU64,
}

impl QueryScheduler {
    /// A scheduler whose aggregate cache retains up to 256 finished
    /// aggregates.
    pub fn new(engine: Engine) -> Self {
        QueryScheduler::with_cache_capacity(engine, DEFAULT_CACHE_CAPACITY)
    }

    /// A scheduler whose aggregate cache retains at most `capacity`
    /// finished aggregates; 0 turns cross-batch reuse off, so every
    /// batch does its own scan work.
    pub fn with_cache_capacity(engine: Engine, capacity: usize) -> Self {
        QueryScheduler {
            engine,
            cache: AggregateCache::new(capacity),
            entries: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The scheduler's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Aggregate-cache counters (hits, evictions, invalidations).
    pub fn cache_stats(&self) -> AggregateCacheStats {
        self.cache.stats()
    }

    /// Registers a dataset for scheduled serving, pinning it in a
    /// fresh [`QuerySession`] (generation 1). On a persisting engine a
    /// snapshot of these bytes warms both the session (indexes, shard
    /// layouts) and the aggregate cache.
    pub fn register(&self, dataset: Dataset) -> DatasetId {
        let (session, aggregates) = QuerySession::restore(self.engine.clone(), dataset);
        self.install(session, aggregates)
    }

    /// Adopts an existing session — typically a **streaming** session
    /// that has been sealed (`ingest_chunk`* → `finish`), so its warm
    /// partition index carries over into scheduled serving. Errors if
    /// the session is still ingesting or failed to seal: the
    /// scheduler never serves partial data. The aggregate cache starts
    /// cold: a sealed stream's snapshot carries no aggregates (`finish`
    /// writes it without any), and an adopted session never reloads
    /// it.
    pub fn adopt(&self, session: QuerySession) -> Result<DatasetId> {
        if !session.is_sealed() {
            return Err(Error::Unsupported(
                "only sealed sessions can be scheduled; finish() the stream first".into(),
            ));
        }
        Ok(self.install(session, Vec::new()))
    }

    fn install(
        &self,
        session: QuerySession,
        aggregates: Vec<(QueryKey, QueryResult)>,
    ) -> DatasetId {
        let id = DatasetId(self.next_id.fetch_add(1, Ordering::Relaxed));
        recover(self.entries.lock()).insert(id, SchedEntry::new(session, 1));
        self.warm_cache(id, 1, aggregates);
        id
    }

    /// Re-inserts a snapshot's finished aggregates under `id` ×
    /// `generation`. Sound because the store's fingerprint check
    /// proved they were computed from exactly these bytes.
    fn warm_cache(&self, id: DatasetId, generation: u64, aggregates: Vec<(QueryKey, QueryResult)>) {
        for (query, result) in aggregates {
            self.cache.insert(
                AggCacheKey {
                    dataset: id,
                    generation,
                    query,
                },
                result,
            );
        }
    }

    /// Spills a dataset's current derived state — the session's
    /// indexes and shard layouts plus every cached aggregate — through
    /// the session's write-through path. Best-effort, called after
    /// waves that produced something new.
    fn spill_entry(&self, id: DatasetId, entry: &SchedEntry) {
        entry
            .session
            .write_through(entry.generation, self.cache.export_dataset(id));
    }

    /// Replaces the dataset behind `id` with new content, **bumping
    /// its generation**: every cached aggregate and the session's
    /// partition-index cache for the old bytes are dropped, so no
    /// query can ever observe the old dataset again.
    pub fn update(&self, id: DatasetId, dataset: Dataset) -> Result<()> {
        let mut entries = recover(self.entries.lock());
        let entry = entries
            .get(&id)
            .ok_or_else(|| Error::Unsupported(format!("unknown dataset id {id:?}")))?;
        let generation = entry.generation + 1;
        // The outgoing bytes' snapshot dies with the generation —
        // deleted *before* the swap, so no restart can ever warm-start
        // from state this update invalidated.
        if let Some(store) = self.engine.persist() {
            let old = entry.session.dataset();
            store.remove(old.bytes(), old.format());
        }
        // The replacement bytes may themselves have a snapshot (e.g. a
        // rollback to previously served content whose file still
        // exists); its aggregates serve under the new generation.
        let (session, aggregates) = QuerySession::restore(self.engine.clone(), dataset);
        entries.insert(id, SchedEntry::new(session, generation));
        drop(entries);
        self.cache.invalidate_dataset(id);
        self.warm_cache(id, generation, aggregates);
        Ok(())
    }

    /// Unregisters a dataset, dropping its session and cached
    /// aggregates.
    pub fn remove(&self, id: DatasetId) -> Result<()> {
        let removed = recover(self.entries.lock()).remove(&id).is_some();
        if !removed {
            return Err(Error::Unsupported(format!("unknown dataset id {id:?}")));
        }
        self.cache.invalidate_dataset(id);
        Ok(())
    }

    /// The current generation of a registered dataset (1 for a fresh
    /// registration, +1 per [`QueryScheduler::update`]).
    pub fn generation(&self, id: DatasetId) -> Option<u64> {
        recover(self.entries.lock()).get(&id).map(|e| e.generation)
    }

    fn entry(&self, id: DatasetId) -> Result<Arc<SchedEntry>> {
        recover(self.entries.lock())
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::Unsupported(format!("unknown dataset id {id:?}")))
    }

    /// Caches a finished aggregate only while `id` is still registered
    /// at `generation`. The registry lock is held across the check and
    /// the insert, so a concurrent [`QueryScheduler::update`] /
    /// [`QueryScheduler::remove`] either runs its invalidation *after*
    /// this insert (and drops it) or has already swapped the entry
    /// (and the insert is skipped) — an in-flight batch can never park
    /// a dead generation's result in the bounded cache.
    fn insert_if_current(
        &self,
        id: DatasetId,
        generation: u64,
        key: AggCacheKey,
        result: QueryResult,
    ) {
        let entries = recover(self.entries.lock());
        if entries.get(&id).map(|e| e.generation) == Some(generation) {
            self.cache.insert(key, result);
        }
    }

    /// The unified entry point: schedules `queries` against one
    /// registered dataset under one [`ExecOptions`] request. The full
    /// policy stack applies — aggregate-cache probe, predicate dedup,
    /// admission waves ordered by [`ExecOptions::priority`] class —
    /// and [`ExecOptions::shards`] scatter–gathers every wave across
    /// the session's cached shard layout. Results are bit-identical
    /// to single-node, unscheduled execution.
    pub fn run(&self, id: DatasetId, queries: &[Query], opts: &ExecOptions) -> Result<RunOutcome> {
        // The caller named the dataset explicitly, so an unknown id is
        // an error even for an empty batch (run_multi only resolves
        // ids that actually carry queries).
        self.entry(id)?;
        let batch: Vec<ScheduledQuery> = queries
            .iter()
            .map(|q| ScheduledQuery::with_priority(id, q.clone(), opts.priority))
            .collect();
        self.run_multi(&batch, opts)
    }

    /// [`QueryScheduler::run`] spanning **multiple datasets** (and
    /// per-query priorities) in one call: pairs group by dataset,
    /// each group runs through the full policy stack, and outcomes
    /// return in submission order.
    pub fn run_multi(&self, batch: &[ScheduledQuery], opts: &ExecOptions) -> Result<RunOutcome> {
        let token = opts.effective_token();
        let started = Instant::now();
        let mut stats = SchedulerStats::new(batch.len());
        // Group by dataset, preserving submission order within each
        // group (first-appearance order across groups).
        let mut order: Vec<DatasetId> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut groups: HashMap<DatasetId, (Vec<usize>, Vec<Query>, Vec<Priority>)> =
            HashMap::new();
        for (i, sq) in batch.iter().enumerate() {
            let (indexes, queries, classes) = groups.entry(sq.dataset).or_insert_with(|| {
                order.push(sq.dataset);
                (Vec::new(), Vec::new(), Vec::new())
            });
            indexes.push(i);
            queries.push(sq.query.clone());
            classes.push(sq.priority);
        }
        // Fail fast: resolve every dataset id before any work is
        // dispatched, so an unknown (or concurrently removed) id
        // cannot discard earlier groups' finished results.
        let resolved: Vec<(DatasetId, Arc<SchedEntry>)> = order
            .iter()
            .map(|&id| Ok((id, self.entry(id)?)))
            .collect::<Result<_>>()?;
        let mut results: Vec<Option<QueryOutcome>> = (0..batch.len()).map(|_| None).collect();
        for (id, entry) in resolved {
            let (indexes, queries, classes) = groups.remove(&id).expect("group exists");
            let mut group_stats = SchedulerStats::new(queries.len());
            let group_results = self.run_group(
                &entry,
                id,
                &queries,
                &classes,
                started,
                &mut group_stats,
                token.as_ref(),
                opts.shards,
            )?;
            for (slot, result) in indexes.iter().zip(group_results) {
                results[*slot] = Some(result);
            }
            for (slot, latency) in indexes.iter().zip(group_stats.latencies) {
                stats.latencies[*slot] = latency;
            }
            for (slot, class) in indexes.iter().zip(classes) {
                stats.classes[*slot] = class;
            }
            stats.unique_queries += group_stats.unique_queries;
            stats.dedup_hits += group_stats.dedup_hits;
            stats.cache_hits += group_stats.cache_hits;
            stats.scan_passes += group_stats.scan_passes;
            stats.waves.extend(group_stats.waves);
        }
        let outcomes: Vec<QueryOutcome> = results
            .into_iter()
            .map(|r| r.expect("every query produced a result"))
            .collect();
        for r in &outcomes {
            match r {
                Err(QueryError::Cancelled) => stats.cancelled += 1,
                Err(QueryError::DeadlineExceeded) => stats.deadline_exceeded += 1,
                Err(QueryError::Panicked(_)) => stats.task_panics += 1,
                Ok(_) => {}
            }
        }
        exec::finish_run(outcomes, None, Some(stats), None, opts)
    }

    /// Estimated cost of one query against a registered dataset, in
    /// scan-equivalents — exactly what the admission controller would
    /// charge it. Single-pass queries cost a fraction of the scan
    /// proportional to their selectivity against the partition-grid
    /// extent; join-class queries cost the measured join/scan ratio
    /// of this dataset when one has run, or a fixed prior. A
    /// serving front end reuses this as its backpressure currency:
    /// queued cost summed in the same units the wave former reasons
    /// in, compared against a load-shedding budget.
    pub fn estimate_query_cost(&self, id: DatasetId, query: &Query) -> Result<f64> {
        let entry = self.entry(id)?;
        Ok(self.estimate_cost(&entry, query))
    }

    fn estimate_cost(&self, entry: &SchedEntry, q: &Query) -> f64 {
        match q.scan_class() {
            ScanClass::SinglePass => {
                let extent = self.engine.grid_extent_area();
                let sel = match q {
                    Query::Containment { region } | Query::Aggregation { region, .. } => {
                        let area = region.mbr().area();
                        if extent > 0.0 {
                            (area / extent).clamp(0.0, 1.0)
                        } else {
                            1.0
                        }
                    }
                    _ => 1.0,
                };
                0.15 + 0.85 * sel
            }
            ScanClass::Join => recover(entry.observed_join_cost.lock()).unwrap_or(JOIN_COST_PRIOR),
        }
    }

    /// The per-dataset execution path behind each group of
    /// [`QueryScheduler::run_multi`]: cache probe → dedup →
    /// admission waves → fan-out. Results are per-query: a sink
    /// panic, a cancellation or an elapsed deadline fails the
    /// affected queries (an interrupted wave fails all of its
    /// members) without discarding what already completed; only
    /// non-query failures propagate as the outer `Err`.
    #[allow(clippy::too_many_arguments)]
    fn run_group(
        &self,
        entry: &SchedEntry,
        id: DatasetId,
        queries: &[Query],
        classes: &[Priority],
        started: Instant,
        stats: &mut SchedulerStats,
        token: Option<&CancelToken>,
        shards: usize,
    ) -> Result<Vec<std::result::Result<QueryResult, QueryError>>> {
        let mut results: Vec<Option<std::result::Result<QueryResult, QueryError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut latencies: Vec<Duration> = vec![Duration::ZERO; queries.len()];
        stats.classes.copy_from_slice(classes);

        // ---- canonical predicate keys: computed once per query,
        // shared by the cache probe, dedup and the cache insert ----
        let keys: Vec<QueryKey> = queries.iter().map(query_key).collect();

        // ---- cross-batch reuse: probe the aggregate cache ----
        let mut pending: Vec<usize> = Vec::with_capacity(queries.len());
        // Missed probe keys, parallel to `pending`, reused verbatim
        // when the finished result is inserted after its wave.
        let mut pending_cache_keys: Vec<Option<AggCacheKey>> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            let cacheable = self.cache.capacity > 0 && q.scan_class() == ScanClass::SinglePass;
            if cacheable {
                let key = AggCacheKey {
                    dataset: id,
                    generation: entry.generation,
                    query: keys[i].clone(),
                };
                if let Some(hit) = self.cache.get(&key) {
                    results[i] = Some(Ok(hit));
                    latencies[i] = started.elapsed();
                    stats.cache_hits += 1;
                    continue;
                }
                pending.push(i);
                pending_cache_keys.push(Some(key));
            } else {
                pending.push(i);
                pending_cache_keys.push(None);
            }
        }

        // ---- predicate dedup over the cache misses ----
        let pending_keys: Vec<&QueryKey> = pending.iter().map(|&i| &keys[i]).collect();
        let mut sub = SchedulerStats::new(pending.len());
        let (unique, representative) = dedup_plan(&pending_keys, &mut sub);
        stats.unique_queries += sub.unique_queries;
        stats.dedup_hits += sub.dedup_hits;

        // ---- admission: cost the unique queries, form waves
        // ordered by class before cost ----
        let costs: Vec<f64> = unique
            .iter()
            .map(|&u| self.estimate_cost(entry, &queries[pending[u]]))
            .collect();
        // A deduplicated predicate executes once, in its
        // representative's wave — so the effective class of a unique
        // query is the **highest** priority among every submission it
        // answers (dedup may only move a query earlier, never park an
        // interactive submitter behind batch waves).
        let mut unique_classes: Vec<Priority> =
            unique.iter().map(|&u| classes[pending[u]]).collect();
        for (p, &rep) in representative.iter().enumerate() {
            let u = unique
                .binary_search(&rep)
                .expect("representatives are unique entries");
            unique_classes[u] = unique_classes[u].min(classes[pending[p]]);
        }
        let waves = form_waves(&costs, &unique_classes);

        // ---- execute the waves, fanning results out as each
        // completes ----
        let persist_epoch = entry.session.persist_epoch();
        let mut aggregates_inserted = false;
        for wave in waves {
            let wave_queries: Vec<Query> = wave
                .iter()
                .map(|&w| queries[pending[unique[w]]].clone())
                .collect();
            let (wave_results, batch_stats) =
                match entry
                    .session
                    .run_isolated_core(&wave_queries, token, shards)
                {
                    Ok(outcome) => outcome,
                    // A batch-wide query failure (cancellation,
                    // deadline, a panic outside the range scans and
                    // the join stage, which tombstone per query) fails
                    // every member of this wave; later waves observe
                    // the same tripped token and fail fast the same
                    // way, so results already resolved are never
                    // discarded.
                    Err(e) => match e.as_query_error() {
                        Some(qe) => {
                            let elapsed = started.elapsed();
                            for &w in &wave {
                                let qi = pending[unique[w]];
                                results[qi] = Some(Err(qe.clone()));
                                latencies[qi] = elapsed;
                            }
                            continue;
                        }
                        None => return Err(e),
                    },
                };
            let elapsed = started.elapsed();
            let scan = batch_stats.shared_scan.total();
            stats.scan_passes += batch_stats.scan_passes;
            for (pos, ((&w, q), result)) in
                wave.iter().zip(&wave_queries).zip(wave_results).enumerate()
            {
                let p = unique[w];
                let qi = pending[p];
                if q.scan_class() == ScanClass::Join {
                    // Feed the admission model with the measured cost
                    // of a join that ran: a tombstoned join did no
                    // join work (its `wall` is zero). `per_query` is
                    // indexed by position within this wave; a
                    // warm-index wave ran no scan (`scan` is zero) and
                    // is skipped by the observer — a ratio against a
                    // zero denominator would poison the model.
                    if let (Ok(_), Some(per_query)) = (&result, batch_stats.per_query.get(pos)) {
                        entry.observe_join_cost(scan, per_query.wall, self.engine.threads());
                    }
                } else if let Ok(ref finished) = result {
                    if let Some(key) = pending_cache_keys[p].take() {
                        self.insert_if_current(id, entry.generation, key, finished.clone());
                        aggregates_inserted = true;
                    }
                }
                results[qi] = Some(result);
                latencies[qi] = elapsed;
            }
            stats.waves.push(WaveStats {
                queries: wave.len() as u64,
                priority: unique_classes[wave[0]],
                estimated_cost: wave.iter().map(|&w| costs[w]).sum(),
                elapsed,
                batch: batch_stats,
            });
        }

        // ---- write-through: waves that built an index, bounded a
        // shard layout or finished a cacheable aggregate leave the
        // derived state on disk for the next process ----
        if self.engine.persist().is_some()
            && (aggregates_inserted || entry.session.persist_epoch() > persist_epoch)
        {
            self.spill_entry(id, entry);
        }

        // ---- dedup fan-out: duplicates clone their representative's
        // finished result ----
        for (p, rep) in representative.iter().enumerate() {
            let qi = pending[p];
            if results[qi].is_none() {
                let rep_qi = pending[*rep];
                results[qi] = Some(
                    results[rep_qi]
                        .clone()
                        .expect("representative resolved before its duplicates"),
                );
                latencies[qi] = latencies[rep_qi];
            }
        }

        stats.latencies = latencies;
        results
            .into_iter()
            .map(|r| r.ok_or_else(|| Error::Unsupported("query was never scheduled".into())))
            .collect()
    }
}

/// Deduplicates a list of predicate keys: returns the indexes of the
/// unique representatives (submission order) and, for every entry, the
/// index of its representative (itself when unique).
fn dedup_plan(keys: &[&QueryKey], stats: &mut SchedulerStats) -> (Vec<usize>, Vec<usize>) {
    let mut unique: Vec<usize> = Vec::with_capacity(keys.len());
    let mut representative: Vec<usize> = Vec::with_capacity(keys.len());
    let mut seen: HashMap<&QueryKey, usize> = HashMap::new();
    for (i, key) in keys.iter().enumerate() {
        match seen.entry(key) {
            std::collections::hash_map::Entry::Occupied(rep) => {
                representative.push(*rep.get());
                stats.dedup_hits += 1;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(i);
                representative.push(i);
                unique.push(i);
            }
        }
    }
    stats.unique_queries = unique.len() as u64;
    (unique, representative)
}

/// Admission control's wave former, over the estimated costs and SLO
/// classes of the unique queries of one batch. Waves are ordered **by
/// class before cost**: every [`Priority::Interactive`] wave runs
/// before any [`Priority::Batch`] wave, so an interactive query never
/// queues behind a batch outlier's solo wave — class is what the
/// tenant bought, cost only orders waves *within* a class.
///
/// Within each class the invariant is unchanged from cost-only
/// admission: queries are admitted into the class's shared wave in
/// ascending cost order while each one costs at most
/// [`OUTLIER_RATIO`] × the wave built so far — **no wave member
/// out-costs the rest of its wave by more than that ratio**, so a
/// scan-heavy outlier can never stall the cheap majority. Rejected
/// queries each run in their own wave; the shared (cheap) wave runs
/// first and outlier waves follow in ascending cost order, so
/// completion latency is monotone in cost within a class. With a single class the output is identical to the
/// pre-class wave former. Classes never share a wave: sharing would
/// couple an interactive query's completion to batch work. Returns
/// waves as index lists into `costs`.
fn form_waves(costs: &[f64], classes: &[Priority]) -> Vec<Vec<usize>> {
    debug_assert_eq!(costs.len(), classes.len());
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for class in [Priority::Interactive, Priority::Batch] {
        let mut order: Vec<usize> = (0..costs.len()).filter(|&i| classes[i] == class).collect();
        if order.is_empty() {
            continue;
        }
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
        let mut shared: Vec<usize> = Vec::new();
        let mut shared_cost = 0.0;
        let mut outliers: Vec<usize> = Vec::new();
        for &i in &order {
            if shared.is_empty() || costs[i] <= OUTLIER_RATIO * shared_cost {
                shared.push(i);
                shared_cost += costs[i];
            } else {
                // `order` is ascending, so every later query is at
                // least as expensive and would be rejected too: the
                // shared wave is exactly the maximal affordable
                // prefix.
                outliers.push(i);
            }
        }
        shared.sort_unstable(); // back to submission order
        waves.push(shared);
        for o in outliers {
            waves.push(vec![o]);
        }
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{RunExt, SchedRunExt};
    use atgis_datagen::{write_geojson, OsmGenerator};
    use atgis_formats::Format;
    use atgis_geometry::Mbr;

    fn dataset(seed: u64, n: usize) -> Dataset {
        let ds = OsmGenerator::new(seed).generate(n);
        Dataset::from_bytes(write_geojson(&ds), Format::GeoJson)
    }

    fn engine() -> Engine {
        Engine::builder().threads(2).cell_size(2.0).build()
    }

    #[test]
    fn query_keys_identify_predicates_exactly() {
        let a = Query::containment(Mbr::new(0.0, 0.0, 1.0, 1.0));
        let b = Query::containment(Mbr::new(0.0, 0.0, 1.0, 1.0));
        let c = Query::containment(Mbr::new(0.0, 0.0, 1.0, 2.0));
        assert_eq!(query_key(&a), query_key(&b));
        assert_ne!(query_key(&a), query_key(&c));
        // Containment and aggregation over the same region are
        // different predicates.
        assert_ne!(
            query_key(&a),
            query_key(&Query::aggregation(Mbr::new(0.0, 0.0, 1.0, 1.0)))
        );
        // Metric sets normalise: ordering does not matter, the
        // area/perimeter selection does.
        use crate::query::Metric;
        use atgis_geometry::DistanceModel;
        let m1 = Query::aggregation_with(
            Mbr::new(0.0, 0.0, 1.0, 1.0),
            vec![Metric::Area, Metric::Perimeter],
            DistanceModel::Spherical,
            FilterStrategy::Auto,
        );
        let m2 = Query::aggregation_with(
            Mbr::new(0.0, 0.0, 1.0, 1.0),
            vec![Metric::Perimeter, Metric::Area, Metric::Count],
            DistanceModel::Spherical,
            FilterStrategy::Auto,
        );
        let m3 = Query::aggregation_with(
            Mbr::new(0.0, 0.0, 1.0, 1.0),
            vec![Metric::Area],
            DistanceModel::Spherical,
            FilterStrategy::Auto,
        );
        assert_eq!(query_key(&m1), query_key(&m2));
        assert_ne!(query_key(&m1), query_key(&m3));
        // Join thresholds and perimeter bounds are part of the key.
        assert_eq!(query_key(&Query::join(5)), query_key(&Query::join(5)));
        assert_ne!(query_key(&Query::join(5)), query_key(&Query::join(6)));
        assert_ne!(
            query_key(&Query::combined(5, 0.0, 1.0)),
            query_key(&Query::combined(5, 0.0, 2.0))
        );
        assert_ne!(
            query_key(&Query::join(5)),
            query_key(&Query::combined(5, 0.0, f64::INFINITY))
        );
    }

    /// Single-class wave forming (every caller before SLO classes
    /// existed): the classed wave former must reproduce the cost-only
    /// behavior exactly.
    fn uniform(costs: &[f64]) -> Vec<Vec<usize>> {
        form_waves(costs, &vec![Priority::Interactive; costs.len()])
    }

    #[test]
    fn wave_former_isolates_outliers() {
        // Uniform costs: one wave.
        assert_eq!(uniform(&[1.0, 1.0, 1.0]), vec![vec![0, 1, 2]]);
        // A giant (10 > 4 × 2.0): isolated, cheap wave first.
        assert_eq!(uniform(&[1.0, 10.0, 1.0]), vec![vec![0, 2], vec![1]]);
        // Two giants over one cheap query: both isolated (20 > 4 × 1,
        // 30 > 4 × 1), ascending cost order.
        assert_eq!(uniform(&[30.0, 1.0, 20.0]), vec![vec![1], vec![2], vec![0]]);
        // A balanced pair of heavies amortises fine with company:
        // 4 ≤ 4 × 2 once the cheap pair is admitted.
        assert_eq!(uniform(&[1.0, 4.0, 1.0, 4.0]), vec![vec![0, 1, 2, 3]]);
        // Singleton and empty edge cases.
        assert_eq!(uniform(&[5.0]), vec![vec![0]]);
        assert!(uniform(&[]).is_empty());
    }

    #[test]
    fn wave_former_orders_classes_before_cost() {
        use Priority::{Batch, Interactive};
        // A batch outlier (100) never precedes interactive work, even
        // though cost-only admission would run the cheap shared wave
        // first and the interactive outlier (50) after the batch one.
        assert_eq!(
            form_waves(
                &[1.0, 100.0, 50.0, 1.0],
                &[Interactive, Batch, Interactive, Batch]
            ),
            vec![vec![0], vec![2], vec![3], vec![1]],
            "interactive waves (shared, then outlier) strictly precede batch waves"
        );
        // Within each class the cost-only invariant is unchanged.
        assert_eq!(
            form_waves(
                &[1.0, 1.0, 10.0, 2.0, 2.0, 30.0],
                &[Interactive, Interactive, Interactive, Batch, Batch, Batch]
            ),
            vec![vec![0, 1], vec![2], vec![3, 4], vec![5]]
        );
        // Classes never share a wave, even at equal cost.
        assert_eq!(
            form_waves(&[1.0, 1.0], &[Batch, Interactive]),
            vec![vec![1], vec![0]]
        );
        // All-batch input degrades to the cost-only shape.
        assert_eq!(
            form_waves(&[1.0, 10.0, 1.0], &[Batch, Batch, Batch]),
            vec![vec![0, 2], vec![1]]
        );
    }

    #[test]
    fn prioritized_batch_runs_interactive_first_and_stays_bit_identical() {
        use Priority::{Batch, Interactive};
        let ds = dataset(930, 80);
        let engine = engine();
        let queries = [
            Query::join(40),                                       // batch outlier
            Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)), // interactive
            Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),   // interactive
            Query::containment(Mbr::new(-8.0, 42.0, 8.0, 58.0)),   // batch
        ];
        let classes = vec![Batch, Interactive, Interactive, Batch];
        let want: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        // The join prior (4.0) out-costs the batch containment
        // (≈ 0.15) by more than the outlier ratio: it runs alone, last.
        let scheduler = QueryScheduler::with_cache_capacity(engine, 0);
        let id = scheduler.register(ds);
        let out = scheduler
            .run_multi(
                &queries
                    .iter()
                    .zip(&classes)
                    .map(|(q, &c)| ScheduledQuery::with_priority(id, q.clone(), c))
                    .collect::<Vec<_>>(),
                &ExecOptions::new().isolated().timed(),
            )
            .unwrap();
        let stats = out.scheduler.clone().unwrap();
        let got: Vec<QueryResult> = out.outcomes.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, want, "class scheduling must not change results");
        assert_eq!(stats.classes, classes);
        // Wave order: interactive shared wave, then the batch
        // containment, then the batch join outlier.
        assert_eq!(stats.waves.first().map(|w| w.priority), Some(Interactive));
        assert_eq!(stats.waves.last().map(|w| w.priority), Some(Batch));
        // Every interactive query completed no later than any batch
        // query — the "never queues behind a batch outlier" claim.
        let interactive_max = stats.latencies[1].max(stats.latencies[2]);
        let batch_min = stats.latencies[0].min(stats.latencies[3]);
        assert!(
            interactive_max <= batch_min,
            "interactive {interactive_max:?} must not wait on batch {batch_min:?}"
        );
        // Per-class percentile report sees the same split.
        let [i95] = stats.class_latency_percentiles(Interactive, &[95.0])[..] else {
            panic!("one percentile requested")
        };
        let [b95] = stats.class_latency_percentiles(Batch, &[95.0])[..] else {
            panic!("one percentile requested")
        };
        assert!(i95 <= b95);
    }

    #[test]
    fn dedup_across_classes_promotes_to_the_interactive_wave() {
        use Priority::{Batch, Interactive};
        let ds = dataset(931, 60);
        let engine = engine();
        let tile = Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let want = engine.exec1(&tile, &ds).unwrap();
        let scheduler = QueryScheduler::with_cache_capacity(engine, 0);
        let id = scheduler.register(ds);
        // The same predicate submitted at batch AND interactive
        // class: one execution, scheduled as interactive (a shared
        // sink may only move a query earlier).
        let queries = [tile.clone(), tile.clone()];
        let out = scheduler
            .run_multi(
                &queries
                    .iter()
                    .zip([Batch, Interactive])
                    .map(|(q, c)| ScheduledQuery::with_priority(id, q.clone(), c))
                    .collect::<Vec<_>>(),
                &ExecOptions::new().isolated().timed(),
            )
            .unwrap();
        let stats = out.scheduler.clone().unwrap();
        let got = out.outcomes;
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.waves.len(), 1);
        assert_eq!(stats.waves[0].priority, Interactive);
        for r in got {
            assert_eq!(r.unwrap(), want);
        }
    }

    #[test]
    fn estimated_cost_is_exposed_for_backpressure() {
        let scheduler = QueryScheduler::new(engine());
        let id = scheduler.register(dataset(933, 20));
        let cheap = scheduler
            .estimate_query_cost(id, &Query::containment(Mbr::new(0.0, 50.0, 1.0, 51.0)))
            .unwrap();
        let join = scheduler.estimate_query_cost(id, &Query::join(10)).unwrap();
        assert!(cheap > 0.0);
        assert!(
            join > cheap,
            "a join prior ({join}) must out-cost a tiny containment ({cheap})"
        );
        assert!(scheduler
            .estimate_query_cost(DatasetId(999), &Query::join(1))
            .is_err());
    }

    #[test]
    fn scheduled_batch_matches_sequential_execution() {
        let ds = dataset(910, 80);
        let engine = engine();
        let queries = vec![
            Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
            Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
            Query::join(40),
            Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)), // dup of 0
            Query::combined(40, 0.0, f64::INFINITY),
            Query::join(40), // dup of 2
        ];
        let want: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(ds);
        let (got, stats) = scheduler.execb_timed(id, &queries).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.unique_queries, 4);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.latencies.len(), 6);
        assert!(stats.latencies.iter().all(|l| *l > Duration::ZERO));
    }

    #[test]
    fn repeated_single_pass_traffic_serves_from_cache() {
        let ds = dataset(911, 60);
        let engine = engine();
        let q = Query::aggregation(Mbr::new(-8.0, 42.0, 6.0, 58.0));
        let want = engine.exec1(&q, &ds).unwrap();
        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(ds);
        let (first, s1) = scheduler.execb_timed(id, std::slice::from_ref(&q)).unwrap();
        assert_eq!(first[0], want);
        assert_eq!(s1.cache_hits, 0);
        assert_eq!(s1.scan_passes, 1);
        let (second, s2) = scheduler.execb_timed(id, std::slice::from_ref(&q)).unwrap();
        assert_eq!(second[0], want);
        assert_eq!(s2.cache_hits, 1);
        assert_eq!(s2.scan_passes, 0, "cache hit skips the scan entirely");
        assert!(s2.waves.is_empty());
        let cache = scheduler.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.entries, 1);
    }

    #[test]
    fn update_bumps_generation_and_never_serves_stale_aggregates() {
        let ds_a = dataset(912, 50);
        let ds_b = dataset(913, 70); // different content
        let engine = engine();
        let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let want_a = engine.exec1(&world, &ds_a).unwrap();
        let want_b = engine.exec1(&world, &ds_b).unwrap();
        assert_ne!(want_a, want_b, "the two generations must differ");

        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(ds_a);
        assert_eq!(scheduler.generation(id), Some(1));
        assert_eq!(scheduler.exec1(id, &world).unwrap(), want_a);
        // Warm the cache, then mutate the dataset.
        assert_eq!(scheduler.exec1(id, &world).unwrap(), want_a);
        assert_eq!(scheduler.cache_stats().hits, 1);

        scheduler.update(id, ds_b).unwrap();
        assert_eq!(scheduler.generation(id), Some(2));
        assert_eq!(
            scheduler.cache_stats().entries,
            0,
            "update drops the old generation's aggregates"
        );
        assert_eq!(
            scheduler.exec1(id, &world).unwrap(),
            want_b,
            "the new generation must serve fresh results"
        );
    }

    #[test]
    fn cache_is_bounded_and_evicts_lru() {
        let cache = AggregateCache::new(2);
        let key = |n: u64| AggCacheKey {
            dataset: DatasetId(1),
            generation: 1,
            query: query_key(&Query::join(n)),
        };
        let r = QueryResult::Matches(Vec::new());
        cache.insert(key(1), r.clone());
        cache.insert(key(2), r.clone());
        assert!(cache.get(&key(1)).is_some(), "keep 1 recently used");
        cache.insert(key(3), r.clone());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(&key(2)).is_none(), "2 was the LRU victim");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let cache = AggregateCache::new(0);
        let key = AggCacheKey {
            dataset: DatasetId(1),
            generation: 1,
            query: query_key(&Query::join(1)),
        };
        cache.insert(key.clone(), QueryResult::Matches(Vec::new()));
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn multi_dataset_batch_routes_per_dataset() {
        let ds_a = dataset(914, 40);
        let ds_b = dataset(915, 60);
        let engine = engine();
        let qa = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let qb = Query::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let want = vec![
            engine.exec1(&qa, &ds_a).unwrap(),
            engine.exec1(&qb, &ds_b).unwrap(),
            engine.exec1(&qa, &ds_b).unwrap(),
            engine.exec1(&qa, &ds_a).unwrap(), // dup of 0 on A
        ];
        let scheduler = QueryScheduler::new(engine);
        let a = scheduler.register(ds_a);
        let b = scheduler.register(ds_b);
        let batch = vec![
            ScheduledQuery::new(a, qa.clone()),
            ScheduledQuery::new(b, qb.clone()),
            ScheduledQuery::new(b, qa.clone()),
            ScheduledQuery::new(a, qa.clone()),
        ];
        let out = scheduler
            .run_multi(&batch, &ExecOptions::new().timed())
            .unwrap();
        let stats = out.scheduler.clone().unwrap();
        let got = out.collapse().unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.dedup_hits, 1, "the duplicate is per-dataset");
        assert_eq!(stats.unique_queries, 3);
        assert_eq!(stats.latencies.len(), 4);
    }

    #[test]
    fn unknown_and_removed_ids_error() {
        let scheduler = QueryScheduler::new(engine());
        let bogus = DatasetId(99);
        assert!(scheduler.run(bogus, &[], &ExecOptions::new()).is_err());
        assert!(scheduler.update(bogus, dataset(916, 5)).is_err());
        assert!(scheduler.remove(bogus).is_err());
        let id = scheduler.register(dataset(917, 5));
        scheduler.remove(id).unwrap();
        assert!(scheduler
            .exec1(id, &Query::containment(Mbr::new(0.0, 0.0, 1.0, 1.0)))
            .is_err());
        assert_eq!(scheduler.generation(id), None);
    }

    #[test]
    fn admission_splits_observed_outlier_into_its_own_wave() {
        let ds = dataset(918, 120);
        let engine = engine();
        let cheap = Query::containment(Mbr::new(-1.0, 49.0, 1.0, 51.0));
        let cheap2 = Query::containment(Mbr::new(-2.0, 48.0, 0.0, 50.0));
        let join = Query::join(60);
        let want: Vec<QueryResult> = [&cheap, &cheap2, &join]
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        // The join prior makes the join an outlier against two cheap
        // containments (cost ≈ 0.15 each): 4.0 > 4 × 0.3.
        let scheduler = QueryScheduler::with_cache_capacity(engine, 0);
        let id = scheduler.register(ds);
        let (got, stats) = scheduler
            .execb_timed(id, &[cheap.clone(), cheap2.clone(), join.clone()])
            .unwrap();
        assert_eq!(got, want, "wave splits must not change results");
        assert_eq!(stats.waves.len(), 2, "cheap wave + outlier wave");
        assert_eq!(stats.waves[0].queries, 2);
        assert_eq!(stats.waves[1].queries, 1);
        // The cheap queries completed strictly before the outlier.
        assert!(stats.latencies[0] <= stats.latencies[2]);
        assert!(stats.latencies[1] <= stats.latencies[2]);
        assert!(stats.waves[0].elapsed <= stats.waves[1].elapsed);
        // The measured join cost replaced the prior: it was recorded
        // (the solo wave ran a real scan) and is a modest ratio.
        let observed = scheduler
            .entry(id)
            .unwrap()
            .observed_join_cost
            .lock()
            .unwrap()
            .expect("the cold join wave must feed the admission model");
        assert!(
            (1.0..40.0).contains(&observed),
            "measured join/scan ratio should be modest, got {observed}"
        );
        let (_, stats2) = scheduler.execb_timed(id, &[cheap, cheap2, join]).unwrap();
        assert!(stats2.scan_passes <= stats.scan_passes);
    }

    #[test]
    fn warm_join_waves_do_not_poison_the_cost_model() {
        // A warm-index join wave runs zero scan passes; its wall time
        // must NOT be ratio'd against a zero (or clamped-to-1ns) scan,
        // which would cost every later join astronomically and
        // force-split batches that amortise fine.
        let ds = dataset(921, 100);
        let engine = engine();
        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(ds);
        let join = Query::join(50);
        scheduler.exec1(id, &join).unwrap(); // cold: builds index, observes
        let cold = scheduler
            .entry(id)
            .unwrap()
            .observed_join_cost
            .lock()
            .unwrap()
            .expect("cold join observed");
        scheduler.exec1(id, &join).unwrap(); // warm: zero-scan wave
        let warm = scheduler
            .entry(id)
            .unwrap()
            .observed_join_cost
            .lock()
            .unwrap()
            .expect("observation survives");
        assert_eq!(
            cold, warm,
            "a zero-scan wave must not update the join/scan ratio"
        );
        assert!(warm < 1e3, "cost model poisoned: {warm}");
        // The direct guard: a zero scan never records.
        let entry = scheduler.entry(id).unwrap();
        entry.observe_join_cost(Duration::ZERO, Duration::from_millis(5), 2);
        assert_eq!(
            *entry.observed_join_cost.lock().unwrap(),
            Some(warm),
            "zero-denominator observations are discarded"
        );
    }

    #[test]
    fn stale_generation_results_never_enter_the_cache() {
        // An in-flight batch holding a pre-update entry must not park
        // its finished aggregates in the cache after update() has
        // invalidated that generation.
        let engine = engine();
        let scheduler = QueryScheduler::new(engine);
        let id = scheduler.register(dataset(922, 20));
        scheduler.update(id, dataset(923, 30)).unwrap(); // now generation 2
        let key = AggCacheKey {
            dataset: id,
            generation: 1,
            query: query_key(&Query::containment(Mbr::new(0.0, 0.0, 1.0, 1.0))),
        };
        // Simulates the racing batch finishing with its stale handle.
        scheduler.insert_if_current(id, 1, key, QueryResult::Matches(Vec::new()));
        assert_eq!(
            scheduler.cache_stats().entries,
            0,
            "generation-1 results must be dropped, not cached"
        );
        // The current generation still caches normally.
        let key2 = AggCacheKey {
            dataset: id,
            generation: 2,
            query: query_key(&Query::containment(Mbr::new(0.0, 0.0, 1.0, 1.0))),
        };
        scheduler.insert_if_current(id, 2, key2, QueryResult::Matches(Vec::new()));
        assert_eq!(scheduler.cache_stats().entries, 1);
        // And a removed dataset accepts nothing.
        scheduler.remove(id).unwrap();
        let key3 = AggCacheKey {
            dataset: id,
            generation: 2,
            query: query_key(&Query::join(1)),
        };
        scheduler.insert_if_current(id, 2, key3, QueryResult::Matches(Vec::new()));
        assert_eq!(scheduler.cache_stats().entries, 0);
    }

    #[test]
    fn adopt_requires_a_sealed_session() {
        let engine = engine();
        let streaming = QuerySession::streaming(engine.clone(), Format::GeoJson).unwrap();
        let scheduler = QueryScheduler::new(engine.clone());
        assert!(
            scheduler.adopt(streaming).is_err(),
            "mid-ingest sessions cannot be scheduled"
        );
        let pinned = QuerySession::new(engine, dataset(919, 10));
        assert!(scheduler.adopt(pinned).is_ok());
    }
}
