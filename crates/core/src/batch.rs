//! Shared-scan batch execution: one structural parse pass serving N
//! concurrent queries.
//!
//! AT-GIS's throughput comes from doing query processing *inside* the
//! scan; a multi-tenant server extends that story by amortising the
//! scan itself. [`Engine::run`] compiles submitted queries — a single
//! query is a batch of one — into a batch plan: every query
//! contributes a per-query aggregate sink to **one** [`MultiSink`]
//! fan-out, so a single transducer pass (the dataset format's split,
//! PAT or FAT for GeoJSON as the engine is configured) parses each
//! geometry once and dispatches it to every member. Join-class queries additionally share one
//! side-agnostic [`PartitionIndex`] — the partition store plus its
//! skew-refined [`PartitionMap`] — and one [`ReparseCache`], so the
//! partition pass, hot-cell splitting and candidate re-parsing are all
//! paid once per batch instead of once per query. Per-query cost
//! drops from `O(dataset)` parse + `O(query)` work to `O(query)` work
//! alone.
//!
//! The layering is plan → scan → aggregate:
//!
//! 1. **plan** — classify each query ([`Query::scan_class`]), build
//!    its sink, and register join specs (`JoinSpec`:
//!    threshold-resolved sides, refine-stage perimeter bounds);
//! 2. **scan** — one pass over the raw bytes with the
//!    [`MultiSink`] prototype (the partition sink rides along when the
//!    index is not already cached). A materialised [`Dataset`] is
//!    scanned range by range — the shards of its [`ShardSet`], or the
//!    whole file as the only range — and the ranges' fan-outs fold
//!    with [`MultiSink::combine`]; a **streamed** source runs the
//!    streaming scan (`crate::stream::StreamingScan`) fed chunk by
//!    chunk from a [`crate::stream::ChunkSource`]. Both produce the
//!    same finished sinks, bit-identically;
//! 3. **aggregate** — extract per-query results; join-class queries
//!    fan out over a flattened (query × partition) job space
//!    ([`crate::executor::run_grid_on`]) sharing the index and the
//!    re-parse cache, then deduplicate per query.
//!
//! Results are **bit-identical** to running each query alone: member
//! sinks see an absorb/combine structure whose final fold is
//! order-canonical (list aggregates concatenate in document
//! order, numeric aggregates are exact — see [`crate::exact`]), and
//! join pairs are canonicalised by the final sort + dedup.
//!
//! A panic fails exactly the queries whose work it hit: a member
//! sink's panic its own query, a panic while scanning a byte range the
//! queries scattered to that range (in an unsharded run, every query),
//! a panicked partition sink or join task the join-class queries.
//! Under whole-batch isolation the first such tombstone fails the run
//! with [`Error::TaskPanicked`].
//!
//! [`QuerySession`] is the serving seam, with two lifecycles:
//!
//! * **pinned** (`QuerySession::new`): a materialised dataset, warm
//!   [`IndexCache`] across batches (a join-only batch over a cached
//!   index runs *zero* parse passes);
//! * **streaming** (`QuerySession::streaming` → `ingest_chunk`* →
//!   `finish`): the session owns a growing stream buffer. While
//!   ingesting it answers single-pass queries over the
//!   feature-complete prefix, and a partition sink rides the
//!   incremental scan, so `finish` **seals** the index without
//!   re-reading anything — the cache is extended incrementally rather
//!   than invalidated wholesale. Join-class queries become available
//!   the moment `finish` returns.

use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::engine::{make_reparser, Engine, EngineBuilder, PartitionAgg};
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::executor::run_grid_on;
use crate::join::{
    fold_slot_results, join_partition, JoinOptions, JoinSpec, ReparseCache, Reparser, SlotResult,
};
use crate::partition::{ArrayStore, GridSpec, PartitionMap, PartitionMapStats};
use crate::persist::{self, Snapshot};
use crate::pipeline::{
    downcast_sink, AggregateSink, ContainmentAgg, FailedSink, MetricsAgg, MultiSink, QueryAggregate,
};
use crate::pool::{recover, JobFault};
use crate::query::{Query, ScanClass};
use crate::result::{QueryError, QueryOutcome, QueryResult};
use crate::shard::ShardSet;
use crate::stats::{
    BatchQueryStats, BatchStats, JoinTimings, ShardStats, ShardTiming, StreamStats, Timings,
};
use crate::stream::{drive, ChunkSource, StreamingScan};
use crate::{Error, Result};
use atgis_formats::feature::MetadataFilter;
use atgis_formats::geojson::fast::Scratch;
use atgis_formats::Format;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The partitioning configuration a [`PartitionIndex`] was built
/// under — the cache key. Two engines with the same partitioning
/// knobs can share an index even if they differ in threads or scan
/// mode, because the index depends only on geometry bounds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct IndexKey {
    pub(crate) cell_deg: u64,
    pub(crate) extent: [u64; 4],
    pub(crate) adaptive: crate::partition::AdaptiveConfig,
}

pub(crate) fn index_key(cfg: &EngineBuilder) -> IndexKey {
    IndexKey {
        cell_deg: cfg.cell_deg.to_bits(),
        extent: [
            cfg.grid_extent.min_x.to_bits(),
            cfg.grid_extent.min_y.to_bits(),
            cfg.grid_extent.max_x.to_bits(),
            cfg.grid_extent.max_y.to_bits(),
        ],
        adaptive: cfg.adaptive,
    }
}

/// A dataset-level spatial index shared by every join-class query of
/// a batch (and, inside a [`QuerySession`], across batches): the
/// side-agnostic partition store plus its skew-refined map. Sides are
/// resolved per query at join time (`id < threshold`), so queries
/// with different thresholds — and the combined query's perimeter
/// bounds, enforced at the refine stage — all read the same index.
pub struct PartitionIndex {
    pub(crate) store: ArrayStore,
    pub(crate) map: PartitionMap,
    /// Time spent on map refinement (load stats + hot-cell splits).
    pub(crate) refine: Duration,
    /// OSM XML only: the offset→geometry table re-parsing needs (a
    /// relation's geometry requires the node table, so single-object
    /// reparse is impossible). Cached with the index so warm-session
    /// XML batches skip this pass too.
    pub(crate) xml_table: Option<Arc<HashMap<u64, atgis_geometry::Geometry>>>,
}

impl PartitionIndex {
    /// Shape of the (possibly refined) partition map.
    pub fn map_stats(&self) -> PartitionMapStats {
        self.map.stats()
    }
}

/// Dataset-level cache of [`PartitionIndex`]es keyed by partitioning
/// configuration. [`Engine::run`] uses a fresh cache per
/// call (queries of one batch share the index); [`QuerySession`] keeps
/// one alive so later batches skip the partition pass entirely.
pub struct IndexCache {
    inner: Mutex<HashMap<IndexKey, Arc<PartitionIndex>>>,
}

impl IndexCache {
    /// An empty cache.
    pub fn new() -> Self {
        IndexCache {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Number of cached indexes.
    pub fn len(&self) -> usize {
        recover(self.inner.lock()).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: &IndexKey) -> Option<Arc<PartitionIndex>> {
        recover(self.inner.lock()).get(key).cloned()
    }

    fn insert(&self, key: IndexKey, index: Arc<PartitionIndex>) {
        recover(self.inner.lock()).insert(key, index);
    }

    /// Every cached index, for snapshot encoding.
    pub(crate) fn export(&self) -> Vec<(IndexKey, Arc<PartitionIndex>)> {
        recover(self.inner.lock())
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }
}

impl Default for IndexCache {
    fn default() -> Self {
        IndexCache::new()
    }
}

/// What one query contributes to the batch plan.
enum Task {
    /// Containment: sink at this position in the fan-out.
    Containment { sink: usize },
    /// Aggregation: sink at this position in the fan-out.
    Aggregation { sink: usize },
    /// Join-class query (its spec's position in the join fan-out is
    /// tracked by `join_query_index`).
    Join,
    /// Combined query: join spec plus the union-area post-aggregation.
    Combined,
}

/// The per-query compilation of a batch — everything the scan step
/// (buffered or streamed) and the aggregate step need.
struct BatchPlan {
    sinks: Vec<Box<dyn AggregateSink>>,
    tasks: Vec<Task>,
    join_specs: Vec<JoinSpec>,
    join_query_index: Vec<usize>,
}

/// Compiles queries into per-query sinks and join specs. Planning
/// needs only the engine configuration, so the buffered and streaming
/// scan paths share it verbatim.
fn plan_queries(engine: &Engine, queries: &[Query]) -> BatchPlan {
    let mut sinks: Vec<Box<dyn AggregateSink>> = Vec::new();
    let mut tasks: Vec<Task> = Vec::with_capacity(queries.len());
    let mut join_specs: Vec<JoinSpec> = Vec::new();
    let mut join_query_index: Vec<usize> = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        match q {
            Query::Containment { region } => {
                tasks.push(Task::Containment { sink: sinks.len() });
                sinks.push(Box::new(ContainmentAgg::new(Arc::new(region.clone()))));
            }
            Query::Aggregation {
                region,
                metrics,
                model,
                strategy,
            } => {
                let strategy = engine.resolve_strategy(*strategy, region);
                tasks.push(Task::Aggregation { sink: sinks.len() });
                sinks.push(Box::new(MetricsAgg::new(
                    Arc::new(region.clone()),
                    metrics,
                    *model,
                    strategy,
                )));
            }
            Query::Join { id_threshold } => {
                tasks.push(Task::Join);
                join_specs.push(JoinSpec::threshold(*id_threshold));
                join_query_index.push(qi);
            }
            Query::Combined {
                id_threshold,
                min_perimeter_left,
                max_perimeter_right,
            } => {
                tasks.push(Task::Combined);
                join_specs.push(
                    JoinSpec::threshold(*id_threshold).with_perimeter_bounds(
                        Some(*min_perimeter_left),
                        Some(*max_perimeter_right),
                    ),
                );
                join_query_index.push(qi);
            }
        }
    }
    BatchPlan {
        sinks,
        tasks,
        join_specs,
        join_query_index,
    }
}

/// A reusable query session: one engine (and its persistent worker
/// pool), one dataset — pinned up front or streamed in chunk by chunk
/// — and a warm [`IndexCache`]. The unit a multi-tenant server holds
/// per served dataset; repeated [`QuerySession::run`] calls amortise
/// both the structural scan (within a batch) and the partition index
/// (across batches).
///
/// ```
/// use atgis::{Dataset, Engine, ExecOptions, Query, QuerySession};
/// use atgis_formats::Format;
/// use atgis_geometry::Mbr;
///
/// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(6).generate(90));
/// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
/// let engine = Engine::builder().threads(2).cell_size(2.0).build();
/// let session = QuerySession::new(engine, dataset);
///
/// let joins = vec![Query::join(45), Query::join(30)];
/// let opts = ExecOptions::new().timed();
/// // First join-class batch: one shared pass builds the partition
/// // index and both joins read it.
/// let out = session.run(&joins, &opts).unwrap();
/// assert_eq!(out.batch.as_ref().unwrap().scan_passes, 1);
/// let cold = out.collapse().unwrap();
/// // Repeat traffic: the cached index serves the joins with ZERO
/// // parse passes, and results stay bit-identical.
/// let out = session.run(&joins, &opts).unwrap();
/// assert_eq!(out.batch.as_ref().unwrap().scan_passes, 0);
/// assert_eq!(cold, out.collapse().unwrap());
/// ```
///
/// For the **streaming** lifecycle (`ingest_chunk`* → `finish`), see
/// [`QuerySession::streaming`]; a sealed session can be handed to a
/// [`crate::scheduler::QueryScheduler`] for multi-tenant serving.
pub struct QuerySession {
    engine: Engine,
    dataset: Dataset,
    cache: IndexCache,
    ingest: Option<SessionIngest>,
    /// Set when a streaming seal failed: the stream is gone but the
    /// session only holds a truncated prefix, so serving queries
    /// would silently cover partial data. Every entry point errors.
    seal_failed: bool,
    /// Shard layouts built for this dataset, keyed by requested shard
    /// count — the bounding pass runs once per count, like the
    /// partition index runs once per configuration.
    shard_sets: Mutex<HashMap<usize, Arc<ShardSet>>>,
}

/// Mid-ingest state of a streaming session.
struct SessionIngest {
    scan: StreamingScan<MultiSink>,
    format: Format,
}

impl QuerySession {
    /// Opens a session serving a fully materialised `dataset` with
    /// `engine`. When the engine carries a persist store
    /// ([`crate::EngineBuilder::persist_path`]), a valid snapshot of
    /// this dataset warm-starts the session: sealed partition indexes
    /// and shard layouts restore without a single parse pass, and a
    /// missing/corrupt/version-skewed snapshot silently leaves the
    /// session cold.
    pub fn new(engine: Engine, dataset: Dataset) -> Self {
        QuerySession::restore(engine, dataset).0
    }

    /// [`QuerySession::new`], also returning the snapshot's finished
    /// aggregates for a scheduler to re-key. This is the one place a
    /// snapshot is loaded: every failure mode (no store, no file,
    /// corruption, version skew, injected read fault) leaves the
    /// session cold and returns no aggregates.
    pub(crate) fn restore(
        engine: Engine,
        dataset: Dataset,
    ) -> (Self, Vec<(crate::scheduler::QueryKey, QueryResult)>) {
        let snap = engine
            .persist()
            .and_then(|store| store.load(dataset.bytes(), dataset.format()).ok().flatten());
        let session = QuerySession {
            engine,
            dataset,
            cache: IndexCache::new(),
            ingest: None,
            seal_failed: false,
            shard_sets: Mutex::new(HashMap::new()),
        };
        let Some(snap) = snap else {
            return (session, Vec::new());
        };
        for (key, index) in snap.indexes {
            session.cache.insert(key, index);
        }
        // An XML layout of several shards predates XML's one-shard
        // rule and would cut the document; rebuild it on demand.
        let xml = session.dataset.format() == Format::OsmXml;
        recover(session.shard_sets.lock()).extend(
            snap.shard_sets
                .into_iter()
                .filter(|(_, set)| !(xml && set.len() > 1)),
        );
        (session, snap.aggregates)
    }

    /// How much restorable state the session holds — grows when a
    /// partition index is built or a shard layout is bounded, so
    /// callers can spill only after runs that actually derived
    /// something new.
    pub(crate) fn persist_epoch(&self) -> usize {
        self.cache.len() + recover(self.shard_sets.lock()).len()
    }

    /// Spills the session's derived state (plus the caller's finished
    /// `aggregates`) to the engine's persist store, best-effort: a
    /// failed save costs only future warm starts, never the query.
    /// No-op for unsealed sessions — a streaming prefix's index must
    /// never be restored as if it covered the full dataset.
    pub(crate) fn write_through(
        &self,
        generation: u64,
        aggregates: Vec<(crate::scheduler::QueryKey, QueryResult)>,
    ) {
        let Some(store) = self.engine.persist() else {
            return;
        };
        if !self.is_sealed() {
            return;
        }
        let snap = Snapshot {
            generation,
            dataset_len: self.dataset.len() as u64,
            fingerprint: persist::dataset_fingerprint(self.dataset.bytes(), self.dataset.format()),
            indexes: self.cache.export(),
            shard_sets: recover(self.shard_sets.lock())
                .iter()
                .map(|(count, set)| (*count, Arc::clone(set)))
                .collect(),
            aggregates,
        };
        let _ = store.save(&snap);
    }

    /// Opens a **streaming** session: the dataset arrives through
    /// [`QuerySession::ingest_chunk`] while the session is live.
    ///
    /// During ingestion the session answers single-pass queries
    /// (containment/aggregation) over the feature-complete prefix
    /// ingested so far, and a side-agnostic partition sink rides the
    /// incremental scan. Calling [`QuerySession::finish`] seals the
    /// stream: the partition index is refined from the incrementally
    /// fed store — no extra parse pass — and join-class queries become
    /// available, served from the warm cache exactly as in a pinned
    /// session.
    pub fn streaming(engine: Engine, format: Format) -> Result<Self> {
        let sink = partition_sink(engine.config());
        let scan = StreamingScan::new(&engine, format, MultiSink::new(vec![sink]), None)?;
        let dataset = Dataset::from_stream_buffer(scan.buffer().clone(), 0, format);
        Ok(QuerySession {
            engine,
            dataset,
            cache: IndexCache::new(),
            ingest: Some(SessionIngest { scan, format }),
            seal_failed: false,
            shard_sets: Mutex::new(HashMap::new()),
        })
    }

    /// The session's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The served dataset. For a streaming session mid-ingest this is
    /// the feature-complete queryable prefix; after
    /// [`QuerySession::finish`] it is the sealed full dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Partition indexes currently cached.
    pub fn cached_indexes(&self) -> usize {
        self.cache.len()
    }

    /// True when the session serves a complete dataset (pinned, or
    /// streamed and successfully sealed). A session whose seal
    /// *failed* is neither ingesting nor sealed — every query entry
    /// point errors.
    pub fn is_sealed(&self) -> bool {
        self.ingest.is_none() && !self.seal_failed
    }

    /// Bytes ingested so far (streaming sessions; pinned sessions
    /// report the dataset length).
    pub fn ingested_len(&self) -> usize {
        match &self.ingest {
            Some(i) => i.scan.ingested_len(),
            None => self.dataset.len(),
        }
    }

    /// Feeds one chunk into a streaming session: the bytes are
    /// appended to the stream buffer, newly feature-complete regions
    /// are scanned into the incremental partition sink on the worker
    /// pool, and the queryable prefix advances. The pool is released
    /// between calls, so queries can interleave with ingestion.
    pub fn ingest_chunk(&mut self, chunk: &[u8]) -> Result<()> {
        let Some(ingest) = self.ingest.as_mut() else {
            return Err(Error::InvalidState(
                "session is sealed; only QuerySession::streaming ingests".into(),
            ));
        };
        ingest.scan.ingest(&self.engine, chunk)?;
        self.dataset = Dataset::from_stream_buffer(
            ingest.scan.buffer().clone(),
            ingest.scan.queryable_len(),
            ingest.format,
        );
        Ok(())
    }

    /// Seals a streaming session: the tail region is scanned, the
    /// incrementally fed partition store is refined into a
    /// [`PartitionIndex`] and installed in the session cache (no
    /// re-scan — the cache is *extended*, not invalidated), and the
    /// session dataset becomes the sealed zero-copy view. Join-class
    /// queries are valid from here on.
    pub fn finish(&mut self) -> Result<StreamStats> {
        let Some(ingest) = self.ingest.take() else {
            return Err(Error::InvalidState("session is already sealed".into()));
        };
        // A failed seal (malformed tail, I/O error) must not leave the
        // session masquerading as sealed over the truncated prefix:
        // mark it dead so later queries error instead of silently
        // serving partial data.
        let (multi, dataset, _timings, stats) = match ingest.scan.seal(&self.engine) {
            Ok(sealed) => sealed,
            Err(e) => {
                self.seal_failed = true;
                return Err(e);
            }
        };
        self.dataset = dataset;
        // Any shard layout bounded the (shorter) streaming prefix;
        // rebuild on demand against the sealed dataset.
        recover(self.shard_sets.lock()).clear();
        let sink = multi
            .into_sinks()
            .pop()
            .expect("the partition sink rode the stream");
        // A panicked partition sink means the index is unbuildable;
        // the session cannot serve join-class queries over it, so the
        // seal fails like a truncated stream would.
        if let Some(m) = sink.panic_message() {
            self.seal_failed = true;
            return Err(Error::TaskPanicked(m.to_string()));
        }
        let index = seal_index(&self.engine, &self.dataset, sink, None)?;
        self.cache
            .insert(index_key(self.engine.config()), Arc::new(index));
        // The seal built the one artifact worth keeping; spill it so
        // the next process skips the parse entirely.
        self.write_through(1, Vec::new());
        Ok(stats)
    }

    /// The unified entry point: executes `queries` over the session
    /// dataset under [`ExecOptions`] — cancellation/deadline, fault
    /// isolation, timing, and sharded scatter–gather all come from the
    /// options struct — reusing the session's cached partition index
    /// when join-class queries recur. On a streaming session
    /// mid-ingest, single-pass queries run over the queryable prefix
    /// and join-class queries error until [`QuerySession::finish`]
    /// seals the index.
    pub fn run(&self, queries: &[Query], opts: &ExecOptions) -> Result<RunOutcome> {
        let token = opts.effective_token();
        let epoch = self.persist_epoch();
        let (outcomes, stats) = self.run_isolated_core(queries, token.as_ref(), opts.shards)?;
        // Write-through: a run that built a partition index or bounded
        // a shard layout leaves it on disk for the next process.
        // Standalone sessions have no generation counter; 1 matches a
        // fresh scheduler registration.
        if self.engine.persist().is_some() && self.persist_epoch() > epoch {
            self.write_through(1, Vec::new());
        }
        exec::finish_run(outcomes, Some(stats), None, None, opts)
    }

    /// The session's cached shard layout for `count` shards, building
    /// (and caching) it on first use. The bounding pass runs outside
    /// the lock; a racing duplicate build is harmless (last insert
    /// wins, both layouts are identical).
    fn shard_set(&self, count: usize, token: Option<&CancelToken>) -> Result<Arc<ShardSet>> {
        if let Some(set) = recover(self.shard_sets.lock()).get(&count) {
            return Ok(set.clone());
        }
        let built = Arc::new(ShardSet::build(&self.engine, &self.dataset, count, token)?);
        recover(self.shard_sets.lock())
            .entry(count)
            .or_insert_with(|| built.clone());
        Ok(built)
    }

    /// Fault-isolated execution core shared by [`QuerySession::run`]
    /// and the scheduler: the shared scan runs over the `shards`-way
    /// layout when `shards > 1` on a sealed dataset, over the whole
    /// file otherwise. Streaming sessions mid-ingest never shard — the
    /// queryable prefix moves under the layout.
    pub(crate) fn run_isolated_core(
        &self,
        queries: &[Query],
        token: Option<&CancelToken>,
        shards: usize,
    ) -> Result<(Vec<QueryOutcome>, BatchStats)> {
        self.guard_lifecycle(queries)?;
        let set = if shards > 1 && self.ingest.is_none() {
            Some(self.shard_set(shards, token)?)
        } else {
            None
        };
        let source = Source::Dataset(&self.dataset, set.as_deref());
        let (outcomes, stats, _) = execute(&self.engine, queries, source, &self.cache, token)?;
        Ok((outcomes, stats))
    }

    /// Rejects calls that violate the session lifecycle with
    /// [`Error::InvalidState`] (never a panic): serving after a failed
    /// seal, or join-class queries mid-ingest.
    fn guard_lifecycle(&self, queries: &[Query]) -> Result<()> {
        if self.seal_failed {
            return Err(Error::InvalidState(
                "streaming session failed to seal; the buffered prefix is \
                 incomplete and will not be served"
                    .into(),
            ));
        }
        if self.ingest.is_some() && queries.iter().any(|q| q.scan_class() == ScanClass::Join) {
            return Err(Error::InvalidState(
                "join-class queries need the sealed partition index; \
                 call QuerySession::finish once the stream ends"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// The partition-pass sink: one side-agnostic index that serves every
/// join spec.
fn partition_sink(cfg: &EngineBuilder) -> Box<dyn AggregateSink> {
    let grid = GridSpec::new(cfg.grid_extent, cfg.cell_deg);
    Box::new(PartitionAgg {
        grid,
        store: ArrayStore::new(grid.num_cells()),
    })
}

/// Seals a finished partition sink into a [`PartitionIndex`]: the map
/// is skew-refined, and OSM XML adds the node-table pass its re-parsing
/// needs (cached with the index, so warm batches skip it).
fn seal_index(
    engine: &Engine,
    dataset: &Dataset,
    sink: Box<dyn AggregateSink>,
    token: Option<&CancelToken>,
) -> Result<PartitionIndex> {
    let PartitionAgg { grid, store } = downcast_sink(sink);
    let started = Instant::now();
    let map = PartitionMap::adaptive(&grid, &store, &engine.config().adaptive);
    let refine = started.elapsed();
    let xml_table = if dataset.format() == Format::OsmXml {
        Some(Arc::new(engine.xml_geometry_table(dataset, token)?))
    } else {
        None
    };
    Ok(PartitionIndex {
        store,
        map,
        refine,
        xml_table,
    })
}

/// Runs the flattened (query × partition) join fan-out: one shared
/// job cursor over every pair, so cheap queries never serialise the
/// pool behind expensive ones. Each task reports its own duration for
/// per-query attribution. Only **occupied** slots are fanned out —
/// on the default (sparse) grid the vast majority of slots are empty,
/// and dispatching + clocking a task per empty slot used to cost more
/// than the whole join pass; an empty slot can only contribute the
/// empty `SlotResult`, which the fold ignores.
#[allow(clippy::too_many_arguments)]
fn run_join_grid(
    engine: &Engine,
    store: &ArrayStore,
    map: &PartitionMap,
    specs: &[JoinSpec],
    reparse: &Reparser<'_>,
    cache: &ReparseCache,
    options: &JoinOptions,
    token: Option<&CancelToken>,
    slots: &[usize],
) -> std::result::Result<Vec<Vec<(Duration, SlotResult)>>, JobFault> {
    run_grid_on(
        engine.pool(),
        specs.len(),
        slots.len(),
        options.threads,
        token,
        |q, i| {
            let started = Instant::now();
            let r = join_partition(store, map, slots[i], &specs[q], reparse, cache, options);
            (started.elapsed(), r)
        },
    )
}

/// Everything the scan step needs, prepared identically for every
/// source: the compiled plan (with the partition sink already appended
/// when an index must be built) and the cache probe.
struct ScanPrep {
    plan: BatchPlan,
    cached: Option<Arc<PartitionIndex>>,
    key: Option<IndexKey>,
    /// Sink count before the partition sink was (possibly) appended —
    /// the partition sink's position in the finished fan-out.
    single_pass_sinks: usize,
}

fn prepare_scan(engine: &Engine, queries: &[Query], cache: &IndexCache) -> ScanPrep {
    let cfg = engine.config();
    let mut plan = plan_queries(engine, queries);
    let needs_index = !plan.join_specs.is_empty();
    let key = needs_index.then(|| index_key(cfg));
    let cached = key.as_ref().and_then(|k| cache.get(k));
    let build_index = needs_index && cached.is_none();
    let single_pass_sinks = plan.sinks.len();
    if build_index {
        plan.sinks.push(partition_sink(cfg));
    }
    ScanPrep {
        plan,
        cached,
        key,
        single_pass_sinks,
    }
}

/// Where a batch's bytes come from — the one thing buffered, sharded
/// and streamed execution differ in. Only the scan step of [`execute`]
/// looks at it; planning and the aggregate step are shared.
pub(crate) enum Source<'a> {
    /// A materialised dataset, scanned range by range: the shards of
    /// the layout when it holds more than one, else the whole file as
    /// the only range.
    Dataset(&'a Dataset, Option<&'a ShardSet>),
    /// A one-shot chunk stream in the given format: the dataset
    /// materialises **inside** the scan (sealed zero-copy stream
    /// buffer), and fragments for later chunks spawn while earlier
    /// ones merge.
    Stream(&'a mut dyn ChunkSource, Format),
}

/// The batch executor behind every `run` entry point: plan, one shared
/// scan of `source`, per-query aggregation (see the module docs for
/// the layering). A streamed source also reports its ingest
/// statistics.
pub(crate) fn execute(
    engine: &Engine,
    queries: &[Query],
    source: Source<'_>,
    cache: &IndexCache,
    token: Option<&CancelToken>,
) -> Result<(Vec<QueryOutcome>, BatchStats, Option<StreamStats>)> {
    // A one-shard layout is the whole file: nothing to scatter.
    let layout = match &source {
        Source::Dataset(_, Some(set)) if set.len() > 1 => Some(*set),
        _ => None,
    };
    let mut stats = BatchStats {
        queries: queries.len() as u64,
        per_query: vec![BatchQueryStats::default(); queries.len()],
        shards: layout.map(|set| ShardStats {
            shards: set.len() as u64,
            per_shard: vec![ShardTiming::default(); set.len()],
            ..ShardStats::default()
        }),
        ..BatchStats::default()
    };
    if queries.is_empty() {
        let stream = matches!(source, Source::Stream(..)).then(StreamStats::default);
        return Ok((Vec::new(), stats, stream));
    }

    // ---- plan, then the one scan: every sink rides it (the partition
    // sink too, when the index is not cached) ----
    let mut prep = prepare_scan(engine, queries, cache);
    let sinks = std::mem::take(&mut prep.plan.sinks);
    let sealed: Dataset;
    let mut stream = None;
    let (finished, dataset) = match source {
        Source::Dataset(dataset, _) => {
            let finished = scan_ranges(
                engine,
                queries,
                &prep.plan.tasks,
                sinks,
                dataset,
                layout,
                &mut stats,
                token,
            )?;
            (finished, dataset)
        }
        Source::Stream(chunks, format) => {
            let proto = MultiSink::new(sinks);
            let mut scan = StreamingScan::new(engine, format, proto, chunks.size_hint())?;
            drive(&mut scan, engine, chunks, token)?;
            let (merged, dataset, t, stream_stats) = scan.seal_cancellable(engine, token)?;
            stats.scan_passes += 1;
            stats.shared_scan = t;
            stream = Some(stream_stats);
            sealed = dataset;
            (merged.into_sinks(), &sealed)
        }
    };

    let finished = finished.into_iter().map(Some).collect();
    let results = finish_batch(
        engine, queries, prep, finished, dataset, cache, &mut stats, token,
    )?;
    Ok((results, stats, stream))
}

/// The scan step over a materialised dataset: every range of the
/// layout (or the whole file, the only range) that some member
/// scatters to runs [`Engine::scan_range_cancellable`] with the plan's
/// one fan-out, and the finished fan-outs fold with
/// [`MultiSink::combine`] — bit-identical to one pass, because the
/// underlying transducers are associative (see [`crate::shard`]).
///
/// A member pruned from a range still rides it, but its region misses
/// the MBR of every feature there, so it absorbs nothing; a range no
/// member scatters to is never read. A panic while scanning a range
/// tombstones exactly the members scattered to it.
#[allow(clippy::too_many_arguments)]
fn scan_ranges(
    engine: &Engine,
    queries: &[Query],
    tasks: &[Task],
    sinks: Vec<Box<dyn AggregateSink>>,
    dataset: &Dataset,
    layout: Option<&ShardSet>,
    stats: &mut BatchStats,
    token: Option<&CancelToken>,
) -> Result<Vec<Box<dyn AggregateSink>>> {
    let ranges: Vec<(usize, usize)> = match layout {
        Some(set) => set.shards().iter().map(|s| (s.start, s.end)).collect(),
        None => vec![(0, dataset.len())],
    };

    // ---- prune: the ranges each query scatters to, and each member
    // rides (the partition sink, past the query sinks, rides all) ----
    let masks: Vec<Vec<bool>> = queries
        .iter()
        .map(|q| layout.map_or_else(|| vec![true], |set| set.scatter_mask(q)))
        .collect();
    let mut rides = vec![vec![true; ranges.len()]; sinks.len()];
    for (qi, task) in tasks.iter().enumerate() {
        if let Task::Containment { sink } | Task::Aggregation { sink } = task {
            rides[*sink].clone_from(&masks[qi]);
        }
    }
    if let Some(ss) = stats.shards.as_mut() {
        for (s, timing) in ss.per_shard.iter_mut().enumerate() {
            timing.queries = masks.iter().filter(|m| m[s]).count() as u64;
        }
        for m in &masks {
            let hits = m.iter().filter(|&&b| b).count() as u64;
            ss.scattered += hits;
            ss.pruned += m.len() as u64 - hits;
            ss.gathered += hits.saturating_sub(1);
        }
    }

    // ---- scatter, and gather by folding each range's fan-out ----
    let needed: Vec<usize> = (0..ranges.len())
        .filter(|&s| rides.iter().any(|r| r[s]))
        .collect();
    let width = sinks.len();
    let mut plan = Some(MultiSink::new(sinks));
    let mut fold: Option<MultiSink> = None;
    let mut failed: Vec<Option<String>> = vec![None; width];
    for (i, &s) in needed.iter().enumerate() {
        // The last range takes the plan's fan-out by move (a join
        // plan's partition sink carries the whole grid skeleton),
        // unless a panic there could leave a member it does not carry
        // without any sink.
        let by_move = i + 1 == needed.len() && (fold.is_some() || rides.iter().all(|r| r[s]));
        let proto = if by_move { plan.take() } else { plan.clone() };
        let proto = proto.expect("only the last range takes the plan");
        let (start, end) = ranges[s];
        let scan = range_failpoint(s).and_then(|()| {
            engine.scan_range_cancellable(dataset, start, end, &MetadataFilter::All, proto, token)
        });
        match scan {
            Ok((merged, t)) => {
                stats.shared_scan.split += t.split;
                stats.shared_scan.process += t.process;
                stats.shared_scan.merge += t.merge;
                if let Some(ss) = stats.shards.as_mut() {
                    ss.per_shard[s].scan = t;
                }
                fold = Some(match fold.take() {
                    Some(acc) => acc.combine(merged),
                    None => merged,
                });
            }
            Err(Error::TaskPanicked(msg)) => {
                for (g, r) in rides.iter().enumerate() {
                    if r[s] {
                        failed[g].get_or_insert_with(|| msg.clone());
                    }
                }
            }
            // Interrupts and parse errors fail the batch.
            Err(e) => return Err(e),
        }
    }
    if fold.is_some() {
        stats.scan_passes += 1;
    }
    let live = fold.or(plan).map_or_else(Vec::new, MultiSink::into_sinks);
    let live = live
        .into_iter()
        .map(Some)
        .chain(std::iter::repeat_with(|| None));
    Ok(failed
        .into_iter()
        .zip(live)
        .map(|(failed, live)| match failed {
            Some(msg) => Box::new(FailedSink::new(msg)) as Box<dyn AggregateSink>,
            None => live.expect("a member no panic hit keeps its sink"),
        })
        .collect())
}

/// The `shard.scan.N` failpoint (fault-injection builds): arming it
/// fails range N alone — shard N, or with `N = 0` an unsharded
/// scan — so range fault isolation is testable deterministically
/// (the `executor.block` point fires inside every range).
fn range_failpoint(range: usize) -> Result<()> {
    #[cfg(feature = "fault-injection")]
    if let Err(p) = std::panic::catch_unwind(|| crate::fault::fire(&format!("shard.scan.{range}")))
    {
        return Err(Error::TaskPanicked(crate::pool::panic_message(&*p)));
    }
    let _ = range;
    Ok(())
}

/// The aggregate step after any scan: build/fetch the partition index,
/// extract single-pass results, run the flattened join fan-out.
/// Per-query fault isolation happens here: a member sink that
/// panicked mid-scan (now a [`AggregateSink::panic_message`]
/// tombstone) turns into that query's
/// `Err(`[`QueryError::Panicked`]`)`, and a panicked partition sink or
/// join task into every join-class query's — their batch mates'
/// results are extracted normally.
#[allow(clippy::too_many_arguments)]
fn finish_batch(
    engine: &Engine,
    queries: &[Query],
    prep: ScanPrep,
    mut finished: Vec<Option<Box<dyn AggregateSink>>>,
    dataset: &Dataset,
    cache: &IndexCache,
    stats: &mut BatchStats,
    token: Option<&CancelToken>,
) -> Result<Vec<QueryOutcome>> {
    let ScanPrep {
        plan,
        cached,
        key,
        single_pass_sinks,
    } = prep;
    let scan_total = stats.shared_scan.total();
    let mut results: Vec<Option<QueryOutcome>> = (0..queries.len()).map(|_| None).collect();
    let fail_joins = |results: &mut [Option<QueryOutcome>], msg: &str| {
        for &qi in &plan.join_query_index {
            results[qi] = Some(Err(QueryError::Panicked(msg.to_string())));
        }
    };

    // ---- aggregate: partition index ----
    let index: Option<Arc<PartitionIndex>> = if plan.join_specs.is_empty() {
        None
    } else if let Some(cached) = cached {
        Some(cached)
    } else {
        let sink = finished
            .get_mut(single_pass_sinks)
            .and_then(Option::take)
            .expect("the partition sink rode the scan");
        // Every join-class query reads the shared partition sink, so
        // its panic fails exactly those queries.
        if let Some(m) = sink.panic_message() {
            fail_joins(&mut results, m);
            None
        } else {
            let built = Arc::new(seal_index(engine, dataset, sink, token)?);
            if built.xml_table.is_some() {
                stats.scan_passes += 1;
            }
            cache.insert(
                key.expect("key exists when an index is needed"),
                built.clone(),
            );
            Some(built)
        }
    };

    // ---- aggregate: single-pass query results ----
    for (qi, task) in plan.tasks.iter().enumerate() {
        let sink = match task {
            Task::Containment { sink } | Task::Aggregation { sink } => *sink,
            _ => continue,
        };
        let started = Instant::now();
        let sink = finished
            .get_mut(sink)
            .and_then(Option::take)
            .expect("every single-pass query has a finished sink");
        // Member-level failure domain: a panicked sink fails exactly
        // this query; everyone else's extraction proceeds.
        if let Some(m) = sink.panic_message() {
            results[qi] = Some(Err(QueryError::Panicked(m.to_string())));
            continue;
        }
        results[qi] = Some(Ok(match task {
            Task::Containment { .. } => {
                let agg: ContainmentAgg = downcast_sink(sink);
                let mut matches = agg.matches;
                matches.sort_by_key(|m| m.offset);
                QueryResult::Matches(matches)
            }
            Task::Aggregation { .. } => {
                let agg: MetricsAgg = downcast_sink(sink);
                QueryResult::Aggregate(agg.values())
            }
            _ => unreachable!(),
        }));
        let finalize = started.elapsed();
        stats.per_query[qi] = BatchQueryStats {
            scan: scan_total,
            join: None,
            decisions: None,
            finalize,
            wall: scan_total + finalize,
        };
    }

    // ---- aggregate: the shared join stage ----
    if let Some(index) = &index {
        let input = dataset.bytes();
        let reparse = make_reparser(input, dataset.format(), index.xml_table.as_deref());
        let options = JoinOptions {
            threads: engine.threads(),
            ..JoinOptions::default()
        };
        // One re-parse cache for the whole batch: objects probed by
        // several queries (or replicated into several partitions)
        // parse once.
        let shared_cache = ReparseCache::new(options.sort_batch);
        let occupied = index.map.occupied_slots(&index.store);
        let grid = run_join_grid(
            engine,
            &index.store,
            &index.map,
            &plan.join_specs,
            reparse.as_ref(),
            &shared_cache,
            &options,
            token,
            &occupied,
        );
        let grid = match grid {
            Ok(per_query) => per_query,
            // A panicked join task fails the join-class queries, which
            // share the fan-out.
            Err(JobFault::Panicked(msg)) => {
                fail_joins(&mut results, &msg);
                Vec::new()
            }
            Err(e) => return Err(Error::from(e)),
        };
        for (jq, per_slot) in grid.into_iter().enumerate() {
            let qi = plan.join_query_index[jq];
            let own_process: Duration = per_slot.iter().map(|(d, _)| *d).sum();
            let outcome = fold_slot_results(&index.map, per_slot.into_iter().map(|(_, r)| r))?;
            let mut finalize = Duration::ZERO;
            results[qi] = Some(Ok(match &queries[qi] {
                Query::Join { .. } => QueryResult::Joined(outcome.pairs),
                Query::Combined { .. } => {
                    // The final aggregation: ST_Area(ST_Union(l, r))
                    // over the (canonically sorted) pairs, through the
                    // shared cache.
                    let started = Instant::now();
                    let mut total = 0.0;
                    let mut scratch = Scratch::default();
                    let mut get = |offset| {
                        shared_cache.get_or_parse(offset, u32::MAX, reparse.as_ref(), &mut scratch)
                    };
                    for p in &outcome.pairs {
                        if let Some(t) = token {
                            t.check()?;
                        }
                        let (a, b) = (get(p.left_offset)?, get(p.right_offset)?);
                        total += crate::operators::union_area(&a, &b);
                    }
                    finalize = started.elapsed();
                    QueryResult::Combined {
                        pairs: outcome.pairs.len() as u64,
                        total_union_area: total,
                    }
                }
                _ => unreachable!("join fan-out only holds join-class queries"),
            }));
            stats.per_query[qi] = BatchQueryStats {
                scan: scan_total,
                join: Some(JoinTimings {
                    partition: stats.shared_scan,
                    refine: index.refine,
                    join: Timings {
                        split: Duration::ZERO,
                        process: own_process,
                        merge: Duration::ZERO,
                    },
                    dedup: outcome.dedup,
                }),
                decisions: Some(outcome.decisions),
                finalize,
                wall: scan_total + own_process + outcome.dedup + finalize,
            };
        }
    }

    let results = results
        .into_iter()
        .map(|r| r.expect("every query produced a result"))
        .collect();
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{RunExt, SessionRunExt};
    use atgis_datagen::{write_geojson, OsmGenerator};
    use atgis_geometry::Mbr;

    fn dataset(seed: u64, n: usize) -> Dataset {
        let ds = OsmGenerator::new(seed).generate(n);
        Dataset::from_bytes(write_geojson(&ds), Format::GeoJson)
    }

    fn mixed_queries(n_objects: u64) -> Vec<Query> {
        vec![
            Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
            Query::aggregation(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
            Query::join(n_objects / 2),
            Query::combined(n_objects / 2, 0.0, f64::INFINITY),
            Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
        ]
    }

    #[test]
    fn batch_matches_sequential_execution() {
        let ds = dataset(900, 80);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let queries = mixed_queries(80);
        let want: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        let (got, stats) = engine.execb_timed(&queries, &ds).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.scan_passes, 1, "one shared pass for the whole batch");
        assert_eq!(stats.queries, 5);
        assert_eq!(stats.amortisation_ratio(), 5.0);
        assert!(stats.per_query[2].join.is_some());
        assert!(stats.per_query[0].join.is_none());
    }

    #[test]
    fn empty_batch_is_empty() {
        let ds = dataset(901, 10);
        let engine = Engine::builder().build();
        let (results, stats) = engine.execb_timed(&[], &ds).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.scan_passes, 0);
    }

    #[test]
    fn session_caches_partition_index_across_batches() {
        let ds = dataset(902, 70);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let baseline: Vec<QueryResult> = [Query::join(35), Query::join(20)]
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        let session = QuerySession::new(engine, ds);
        assert_eq!(session.cached_indexes(), 0);
        assert!(session.is_sealed());
        let (first, s1) = session
            .execb_timed(&[Query::join(35), Query::join(20)])
            .unwrap();
        assert_eq!(first, baseline);
        assert_eq!(s1.scan_passes, 1);
        assert_eq!(session.cached_indexes(), 1);
        // Second batch: the cached index serves both joins with zero
        // parse passes.
        let (second, s2) = session
            .execb_timed(&[Query::join(35), Query::join(20)])
            .unwrap();
        assert_eq!(second, baseline);
        assert_eq!(s2.scan_passes, 0);
        assert_eq!(session.cached_indexes(), 1);
    }

    #[test]
    fn session_single_query_matches_engine() {
        let ds = dataset(903, 60);
        let engine = Engine::builder().threads(2).build();
        let q = Query::aggregation(Mbr::new(-8.0, 42.0, 6.0, 58.0));
        let want = engine.exec1(&q, &ds).unwrap();
        let session = QuerySession::new(engine, ds);
        assert_eq!(session.exec1(&q).unwrap(), want);
    }

    #[test]
    fn duplicate_queries_in_one_batch_agree() {
        let ds = dataset(904, 50);
        let engine = Engine::builder().threads(2).build();
        let q = Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let results = engine
            .execb(&[q.clone(), q.clone(), q.clone()], &ds)
            .unwrap();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert!(!results[0].matches().is_empty());
    }

    #[test]
    fn streaming_session_lifecycle() {
        let gen = OsmGenerator::new(906).generate(60);
        let bytes = write_geojson(&gen);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let reference = Dataset::from_bytes(bytes.clone(), Format::GeoJson);

        let mut session = QuerySession::streaming(engine.clone(), Format::GeoJson).unwrap();
        assert!(!session.is_sealed());
        // Joins are rejected until sealed.
        assert!(session.exec1(&Query::join(30)).is_err());

        for chunk in bytes.chunks(777) {
            session.ingest_chunk(chunk).unwrap();
        }
        // Mid-ingest: single-pass queries answer over the prefix, and
        // the prefix equals a buffered run over the same bytes.
        let prefix_len = session.dataset().len();
        assert!(prefix_len > 0);
        let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let prefix_ds = Dataset::from_bytes(bytes[..prefix_len].to_vec(), Format::GeoJson);
        assert_eq!(
            session.exec1(&world).unwrap(),
            engine.exec1(&world, &prefix_ds).unwrap()
        );

        let stats = session.finish().unwrap();
        assert!(session.is_sealed());
        assert!(stats.chunks > 0);
        assert_eq!(session.dataset().len(), bytes.len());
        assert_eq!(session.cached_indexes(), 1, "finish seals the index");

        // Join-class queries now serve from the sealed index with no
        // further parse passes, bit-identical to buffered execution.
        let (got, jstats) = session
            .execb_timed(&[Query::join(30), Query::combined(30, 0.0, f64::INFINITY)])
            .unwrap();
        let want: Vec<QueryResult> = [Query::join(30), Query::combined(30, 0.0, f64::INFINITY)]
            .iter()
            .map(|q| engine.exec1(q, &reference).unwrap())
            .collect();
        assert_eq!(got, want);
        assert_eq!(jstats.scan_passes, 0, "sealed index: no parse passes");
        // Double-finish errors.
        assert!(session.finish().is_err());
    }

    #[test]
    fn failed_seal_refuses_to_serve_the_truncated_prefix() {
        // A malformed record in the stream surfaces at finish(); the
        // session must then refuse every query instead of serving the
        // feature-complete prefix as if it were the whole dataset.
        let engine = Engine::builder().build();
        let mut session = QuerySession::streaming(engine, Format::Wkt).unwrap();
        session
            .ingest_chunk(b"1\tPOINT(1.5 50.5)\t\nBAD-ID\tPOINT(2 2)\t\n")
            .unwrap();
        let err = session.finish();
        assert!(err.is_err(), "malformed row must fail the seal");
        assert!(!session.is_sealed(), "a failed seal is not sealed");
        let world = Query::containment(atgis_geometry::Mbr::new(-180.0, -90.0, 180.0, 90.0));
        assert!(
            session.exec1(&world).is_err(),
            "queries after a failed seal must error, not serve partial data"
        );
        assert!(session.ingest_chunk(b"more").is_err(), "the stream is gone");
    }

    #[test]
    fn tombstoned_member_sink_fails_only_its_query() {
        // Drives finish_batch's member-level failure domain directly:
        // query 1's sink "panicked" mid-scan (tombstoned), queries 0
        // and 2 must come out bit-identical to their solo runs.
        let ds = dataset(930, 60);
        let engine = Engine::builder().threads(2).build();
        let queries = vec![
            Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
            Query::containment(Mbr::new(-6.0, 44.0, 4.0, 56.0)),
            Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
        ];
        let solo: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        let cache = IndexCache::new();
        let mut prep = prepare_scan(&engine, &queries, &cache);
        let proto = MultiSink::new(std::mem::take(&mut prep.plan.sinks));
        let (merged, t) = engine
            .single_pass(&ds, &MetadataFilter::All, proto)
            .unwrap();
        let mut finished: Vec<Option<Box<dyn AggregateSink>>> =
            merged.into_sinks().into_iter().map(Some).collect();
        finished[1] = Some(Box::new(crate::pipeline::FailedSink::new("sink bomb")));
        let mut stats = BatchStats {
            queries: 3,
            scan_passes: 1,
            shared_scan: t,
            per_query: vec![BatchQueryStats::default(); 3],
            shards: None,
        };
        let results = finish_batch(
            &engine, &queries, prep, finished, &ds, &cache, &mut stats, None,
        )
        .unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &solo[0]);
        assert_eq!(results[2].as_ref().unwrap(), &solo[2]);
        match &results[1] {
            Err(QueryError::Panicked(m)) => assert!(m.contains("sink bomb"), "payload: {m}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The engine (and its pool) stays fully serviceable.
        assert_eq!(
            engine.execb(&queries, &ds).unwrap(),
            solo,
            "a later batch on the same engine is unaffected"
        );
    }

    #[test]
    fn cancelled_batch_returns_structured_error_and_engine_survives() {
        let ds = dataset(931, 60);
        let engine = Engine::builder().threads(2).build();
        let queries = mixed_queries(60);
        let token = crate::CancelToken::new();
        token.cancel();
        match engine
            .run(&queries, &ds, &ExecOptions::new().cancellable(&token))
            .and_then(|o| o.collapse())
        {
            Err(Error::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Same engine, fresh token: full results, bit-identical.
        let want: Vec<QueryResult> = queries
            .iter()
            .map(|q| engine.exec1(q, &ds).unwrap())
            .collect();
        let got = engine
            .run(
                &queries,
                &ds,
                &ExecOptions::new().cancellable(&crate::CancelToken::new()),
            )
            .and_then(|o| o.collapse())
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn elapsed_deadline_fails_the_batch_with_deadline_exceeded() {
        let ds = dataset(932, 60);
        let engine = Engine::builder().threads(2).build();
        let token = crate::CancelToken::with_deadline(std::time::Duration::ZERO);
        match engine
            .run(
                &mixed_queries(60),
                &ds,
                &ExecOptions::new().cancellable(&token),
            )
            .and_then(|o| o.collapse())
        {
            Err(Error::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn mid_ingest_join_and_double_finish_are_invalid_state() {
        let engine = Engine::builder().build();
        let mut session = QuerySession::streaming(engine, Format::Wkt).unwrap();
        session.ingest_chunk(b"1\tPOINT(1.5 50.5)\t\n").unwrap();
        match session.exec1(&Query::join(10)) {
            Err(Error::InvalidState(m)) => assert!(m.contains("sealed"), "message: {m}"),
            other => panic!("expected InvalidState, got {other:?}"),
        }
        session.finish().unwrap();
        match session.ingest_chunk(b"2\tPOINT(2 2)\t\n") {
            Err(Error::InvalidState(_)) => {}
            other => panic!("expected InvalidState, got {other:?}"),
        }
        match session.finish() {
            Err(Error::InvalidState(_)) => {}
            other => panic!("expected InvalidState, got {other:?}"),
        }
    }

    #[test]
    fn sharded_session_matches_single_node() {
        let ds = dataset(940, 120);
        let queries = mixed_queries(120);
        let single: Vec<QueryResult> = {
            let engine = Engine::builder().threads(2).cell_size(2.0).build();
            queries
                .iter()
                .map(|q| engine.exec1(q, &ds).unwrap())
                .collect()
        };
        for shards in [1usize, 2, 4, 8] {
            let engine = Engine::builder().threads(2).cell_size(2.0).build();
            let session = QuerySession::new(engine, ds.clone());
            let out = session
                .run(&queries, &ExecOptions::new().timed().sharded(shards))
                .unwrap();
            if shards > 1 {
                let ss = out.shard_stats().expect("sharded run reports ShardStats");
                assert!(ss.shards > 1, "dataset must split at {shards} shards");
                assert_eq!(
                    ss.scattered + ss.pruned,
                    ss.shards * queries.len() as u64,
                    "every (query, shard) pair is scattered or pruned"
                );
            }
            let got: Vec<QueryResult> = out.collapse().unwrap();
            assert_eq!(got, single, "shards={shards}");
        }
    }

    #[test]
    fn sharded_pruning_is_observable_and_result_preserving() {
        let ds = dataset(941, 100);
        let engine = Engine::builder().threads(2).build();
        // A query region far outside the generated extent: every shard
        // prunes it, and the result is the same empty match set a full
        // scan produces.
        let nowhere = Query::containment(Mbr::new(170.0, 80.0, 175.0, 85.0));
        let want = engine.exec1(&nowhere, &ds).unwrap();
        let session = QuerySession::new(engine, ds);
        let out = session
            .run(
                std::slice::from_ref(&nowhere),
                &ExecOptions::new().timed().sharded(4),
            )
            .unwrap();
        let ss = out.shard_stats().expect("sharded stats");
        assert_eq!(ss.scattered, 0, "disjoint region scatters nowhere");
        assert_eq!(ss.pruned, ss.shards);
        assert_eq!(out.collapse().unwrap(), vec![want]);
    }

    #[test]
    fn sharded_session_reuses_layout_and_index() {
        let ds = dataset(942, 80);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let session = QuerySession::new(engine, ds);
        let joins = vec![Query::join(40), Query::join(25)];
        let opts = ExecOptions::new().timed().sharded(4);
        let first = session.run(&joins, &opts).unwrap().collapse().unwrap();
        assert_eq!(session.cached_indexes(), 1);
        // Warm path: the cached index serves the sharded join fan-out
        // with zero parse passes, bit-identically.
        let warm = session.run(&joins, &opts).unwrap();
        assert_eq!(warm.batch.as_ref().unwrap().scan_passes, 0);
        assert_eq!(warm.collapse().unwrap(), first);
    }

    #[test]
    fn restored_multi_shard_xml_layout_is_rebuilt_as_one_shard() {
        // A v2 snapshot may hold an XML layout of several shards; a
        // byte range of XML cannot be scanned alone, so the session
        // must skip that layout and rebuild the one-shard layout on
        // demand.
        let _gate = crate::testutil::serialised();
        let root = std::env::temp_dir().join(format!(
            "atgis-batch-unit-{}-xml-layout",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let bytes = atgis_datagen::write_osm_xml(&OsmGenerator::new(943).generate(120));
        let ds = Dataset::from_bytes(bytes, Format::OsmXml);
        let engine = Engine::builder()
            .threads(2)
            .cell_size(2.0)
            .persist_path(&root)
            .build();
        let queries = mixed_queries(120);
        let single = engine.execb(&queries, &ds).unwrap();

        let marker = Format::OsmXml.record_marker().bytes;
        let stale: Vec<crate::shard::Shard> = atgis_formats::marker_blocks(ds.bytes(), marker, 4)
            .into_iter()
            .map(|b| crate::shard::Shard {
                start: b.start,
                end: b.end,
                mbr: Some(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
                features: 0,
            })
            .collect();
        assert_eq!(stale.len(), 4, "the document must cut into 4 ranges");
        let snap = Snapshot {
            generation: 1,
            dataset_len: ds.len() as u64,
            fingerprint: persist::dataset_fingerprint(ds.bytes(), Format::OsmXml),
            indexes: Vec::new(),
            shard_sets: vec![(4, Arc::new(ShardSet::from_shards(stale)))],
            aggregates: Vec::new(),
        };
        engine
            .persist()
            .expect("persisting engine")
            .save(&snap)
            .unwrap();

        let session = QuerySession::new(engine, ds);
        assert!(
            recover(session.shard_sets.lock()).get(&4).is_none(),
            "the stale layout is not restored"
        );
        let out = session
            .run(&queries, &ExecOptions::new().timed().sharded(4))
            .unwrap();
        assert!(out.shard_stats().is_none(), "XML scatters nothing");
        assert_eq!(out.collapse().unwrap(), single);
        assert_eq!(
            recover(session.shard_sets.lock()).get(&4).map(|s| s.len()),
            Some(1),
            "the rebuilt layout is one shard"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn streaming_batch_matches_buffered_batch() {
        let gen = OsmGenerator::new(907).generate(70);
        let bytes = write_geojson(&gen);
        let ds = Dataset::from_bytes(bytes.clone(), Format::GeoJson);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let queries = mixed_queries(70);
        let want = engine.execb(&queries, &ds).unwrap();
        let mut source = crate::stream::SliceChunkSource::new(&bytes, 4096);
        let out = engine
            .run_streaming(
                &queries,
                &mut source,
                Format::GeoJson,
                &ExecOptions::new().timed(),
            )
            .unwrap();
        let stats = out.batch.clone().unwrap();
        let sstats = out.stream.clone().unwrap();
        assert_eq!(out.collapse().unwrap(), want);
        assert_eq!(stats.scan_passes, 1);
        assert!(sstats.chunks > 1);
        assert!(sstats.regions > 0);
    }
}
