//! # AT-GIS: highly parallel spatial query processing
//!
//! A reproduction of *AT-GIS: Highly Parallel Spatial Query Processing
//! with Associative Transducers* (Ogden, Thomas, Pietzuch — SIGMOD
//! 2016). AT-GIS executes containment, aggregation, spatial-join and
//! combined queries **directly over raw spatial files** (GeoJSON, WKT,
//! OSM XML) with no load or indexing phase, using associative
//! transducers to parallelise parsing and query execution across CPU
//! cores.
//!
//! ## Quickstart
//!
//! Every entry point takes an [`ExecOptions`] request describing *how*
//! to execute — cancellation, deadline, timing, fault isolation,
//! priority and sharding — instead of a method-name permutation:
//!
//! ```
//! use atgis::{Dataset, Engine, ExecOptions, Query};
//! use atgis_formats::{Format, Mode};
//! use atgis_geometry::Mbr;
//!
//! // Generate a small in-memory GeoJSON dataset.
//! let data = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(1).generate(100));
//! let dataset = Dataset::from_bytes(data, Format::GeoJson);
//!
//! let engine = Engine::builder().threads(2).mode(Mode::Pat).build();
//! let region = Mbr::new(-10.0, 40.0, 10.0, 60.0);
//! let queries = vec![Query::containment(region)];
//! let result = engine
//!     .run(&queries, &dataset, &ExecOptions::new())
//!     .unwrap()
//!     .into_single()
//!     .unwrap();
//! assert!(!result.matches().is_empty());
//!
//! // The same request, scatter–gathered over 4 intra-process shards
//! // with timing: bit-identical results, per-shard stats.
//! let sharded = engine
//!     .run(&queries, &dataset, &ExecOptions::new().sharded(4).timed())
//!     .unwrap();
//! assert_eq!(sharded.outcomes[0].as_ref().unwrap(), &result);
//! ```
//!
//! ## Architecture (§4 of the paper)
//!
//! See `ARCHITECTURE.md` at the repository root for the full
//! four-layer map (transducer → formats → core scan/merge →
//! batch/stream/scheduler), the ingest → seal → query lifecycle and
//! the data-flow diagram of a scheduled batch.
//!
//! Execution is layered **plan → shared scan → per-query aggregate**:
//! a query (or a whole batch of queries) is compiled into per-query
//! aggregate sinks, ONE structural scan drives every sink from the
//! same parse pass, and per-query work happens in the sinks and the
//! join pipelines behind them.
//!
//! * [`scheduler`] — the **multi-tenant scheduling layer** above the
//!   batch: [`scheduler::QueryScheduler`] deduplicates identical
//!   predicates (one sink, fanned out to every submitter), serves
//!   repeated single-pass traffic from a bounded
//!   [`scheduler::AggregateCache`] keyed by predicate × dataset
//!   generation (updates bump the generation, so stale aggregates are
//!   impossible), admission-controls batches into waves so a
//!   scan-heavy outlier cannot stall the cheap majority, and lifts
//!   batches to **multiple datasets** in one call
//!   ([`scheduler::QueryScheduler::run_multi`]). Dedup and admission
//!   always run, with fixed thresholds; the cache capacity is the one
//!   setting ([`scheduler::QueryScheduler::with_cache_capacity`]).
//! * [`batch`] — the **shared-scan batch layer**: a batched
//!   [`Engine::run`] fans every submitted query's aggregate out of a
//!   single parse pass (the [`pipeline::MultiSink`] fan-out),
//!   join-class queries share one side-agnostic partition index +
//!   re-parse cache, and [`batch::QuerySession`] keeps the index
//!   cache warm across batches. A `QuerySession` has two lifecycles:
//!   **pinned** — build an [`Engine`], pin a [`Dataset`]
//!   (`QuerySession::new`), serve repeated `QuerySession::run` calls
//!   (the first join-class batch pays one partition pass, later ones
//!   reuse the cached
//!   [`PartitionMap`]); and **streaming** — `QuerySession::streaming`
//!   → `ingest_chunk`* → `finish`: **ingest** appends chunks to the
//!   session's stream buffer while a partition sink rides the
//!   incremental scan and single-pass queries answer over the
//!   feature-complete prefix; **seal** (`finish`) refines the
//!   incrementally-fed store into the partition index with no extra
//!   pass; **query** — join-class traffic then serves from the warm
//!   cache exactly as in a pinned session. Results are bit-identical
//!   to per-query execution in both lifecycles.
//! * [`shard`] — **intra-process sharded scatter–gather**: a
//!   [`ShardSet`] splits a dataset into byte-range shards cut at
//!   parser-reported feature starts and bounded by per-shard MBRs
//!   (OSM XML is one shard);
//!   [`ExecOptions::sharded`] runs a batch's one scan shard by shard
//!   (skipping shards a region query cannot touch), folds the
//!   shards' fan-outs with the associative member-wise combine, and
//!   stays bit-identical to single-node execution at every shard
//!   count.
//! * [`stream`] — **chunk-fed streaming execution**: a
//!   [`stream::ChunkSource`] (file, reader, bounded in-memory channel)
//!   feeds an append-only stable-address [`StreamBuffer`], and
//!   [`Engine::run_streaming`] runs regions through the buffered
//!   scan's region kernel as bytes arrive — PAT regions cut at the
//!   last seen record marker, FAT regions anywhere, XML one region at
//!   end of stream — overlapping ingest I/O with scanning. Live
//!   fragments stay `O(workers)` (see `executor`), and
//!   streamed results are bit-identical to buffered execution for
//!   every format × mode × chunk size.
//! * [`pool`] — the **persistent execution runtime**: one
//!   [`pool::WorkerPool`] per engine, spawned in
//!   `EngineBuilder::build` and reused by every query. Jobs drain an
//!   atomic work-queue cursor; results land in pre-sized slots written
//!   lock-free (each index has exactly one writer), so serving heavy
//!   query traffic costs no thread churn and no per-slot locks.
//! * [`executor`] — the split / processing / merge phases of Fig. 5 on
//!   top of the pool. The merge phase is an **incremental out-of-order
//!   left fold** ([`executor::StreamMerger`]): each fragment folds
//!   into its neighbours the moment its task completes, coalescing
//!   adjacent runs, so live fragments are bounded by in-flight tasks
//!   (`O(workers)`, never `O(blocks)` or `O(chunks)`) and merging
//!   overlaps processing. Only adjacent fragments combine, in index
//!   order — by ⊗-associativity (§3.2) and the exact numeric
//!   aggregates ([`exact::ExactSum`]) results are identical at every
//!   thread count, block count and chunking. `threads == 0` means
//!   "match the machine", and per-job concurrency is always clamped
//!   to the number of work items.
//! * [`pipeline`] — per-block query processing: parse fragments from
//!   `atgis-formats` composed with query aggregates (Fig. 6's
//!   stages), including the streaming vs buffered filter trade-off of
//!   Fig. 7.
//! * [`partition`] — spatial grid partitioning with array- and
//!   list-backed stores (§4.4's data-structure trade-off), plus the
//!   **skew-adaptive two-level partition map**: per-cell load
//!   statistics recursively split hot cells into sub-grids so
//!   clustered data (Fig. 14) cannot serialise the join, with
//!   reference-point filtering keeping exactly one copy of every
//!   replicated candidate pair.
//! * [`join`] — the two-pass PBSM join pipeline of Fig. 8 (MBR
//!   compare → sort → re-parse/buffer → refine → dedup), with a
//!   cost-based per-partition choice between the sort+sweep and an
//!   `atgis-rtree` STR bulk-load + probe for badly asymmetric sides or
//!   dense partitions (fixed thresholds, no override), and a join-wide
//!   sharded re-parse cache.
//! * [`query`] / [`result`] — Table 3's query forms and their results.
//! * [`dataset`] — raw bytes plus format; heap-owned, memory-mapped
//!   ([`Dataset::mmap`]) so multi-GB inputs don't double resident
//!   memory, or a zero-copy view over a streaming ingest buffer
//!   ([`StreamBuffer`] — prefix views mid-ingest, the sealed full view
//!   after; `Dataset::from_reader` builds one straight from any
//!   reader, so the streaming path never holds the input twice).
//!
//! ## The scan fast path
//!
//! All format scanning funnels through two vectorised primitives:
//! `atgis-transducer`'s lane loop (structural lexing skips a whole
//! SIMD lane per iteration between interesting bytes — see the
//! `atgis_transducer::dfa` docs) and `atgis-formats`' SWAR
//! `memchr`/`find_marker` (marker-aligned splitting, string scanning,
//! XML tag seeking). The speculative byte-at-a-time slow path still
//! runs in exactly one place: the *pre-convergence* prefix of a FAT
//! block, where multiple lexer states advance in lockstep; once the
//! runs converge — typically within a few bytes of a block start — the
//! single shared run proceeds through the bulk scanner.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod cancel;
pub mod dataset;
pub mod engine;
pub mod exact;
pub mod exec;
pub mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod join;
pub mod operators;
pub mod partition;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod query;
pub mod result;
pub mod scheduler;
pub mod shard;
pub mod stats;
pub mod stream;
#[cfg(test)]
pub(crate) mod testutil;

pub use batch::{IndexCache, PartitionIndex, QuerySession};
pub use cancel::{CancelToken, Interrupt};
pub use dataset::{Dataset, StreamBuffer};
pub use engine::{Engine, EngineBuilder};
pub use exact::ExactSum;
pub use exec::{ExecOptions, Isolation, RunOutcome};
pub use partition::{AdaptiveConfig, PartitionMap, PartitionMapStats};
pub use persist::{PersistError, PersistStats, PersistStore, Snapshot};
pub use query::{FilterStrategy, Metric, Query, ScanClass};
pub use result::{AggregateValues, JoinPair, MatchRecord, QueryError, QueryOutcome, QueryResult};
pub use scheduler::{
    AggregateCache, AggregateCacheStats, DatasetId, Priority, QueryScheduler, ScheduledQuery,
};
pub use shard::ShardSet;
pub use stats::{
    BatchQueryStats, BatchStats, JoinDecisions, SchedulerStats, ShardStats, ShardTiming,
    StreamStats, Timings, WaveStats,
};
pub use stream::{
    chunk_channel, ChannelChunkSource, ChunkSender, ChunkSource, FileChunkSource,
    ReaderChunkSource, SliceChunkSource,
};

/// A named fault-injection hook. Compiles to nothing unless the
/// `fault-injection` feature is on; with it, the hook consults the
/// `fault` module's failpoint registry (a single relaxed atomic load
/// while disarmed) and may panic or stall as the armed `FaultAction`
/// dictates. Place only inside worker task bodies, where a panic is
/// caught and isolated by the pool.
#[macro_export]
macro_rules! fault_point {
    ($name:expr) => {
        #[cfg(feature = "fault-injection")]
        $crate::fault::fire($name);
    };
}

/// Crate-level error type.
#[derive(Debug)]
pub enum Error {
    /// Parsing of the raw input failed.
    Parse(atgis_formats::ParseError),
    /// I/O failure while reading a dataset file.
    Io(std::io::Error),
    /// The query is not supported for this dataset/mode combination.
    Unsupported(String),
    /// The call violated an object's lifecycle (e.g. a join on a
    /// mid-ingest streaming session, querying a failed session).
    InvalidState(String),
    /// Execution was cancelled via a [`cancel::CancelToken`].
    Cancelled,
    /// The [`cancel::CancelToken`] deadline elapsed mid-execution.
    DeadlineExceeded,
    /// A worker task panicked; the payload is the panic message. The
    /// pool, the engine and every shared cache survive — only the
    /// affected query fails.
    TaskPanicked(String),
}

impl Error {
    /// The per-query [`QueryError`] form of this error, when it has
    /// one (the cloneable cancellation/deadline/panic subset used by
    /// fault-isolated batch results).
    pub fn as_query_error(&self) -> Option<QueryError> {
        match self {
            Error::Cancelled => Some(QueryError::Cancelled),
            Error::DeadlineExceeded => Some(QueryError::DeadlineExceeded),
            Error::TaskPanicked(m) => Some(QueryError::Panicked(m.clone())),
            _ => None,
        }
    }
}

impl From<atgis_formats::ParseError> for Error {
    fn from(e: atgis_formats::ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<Interrupt> for Error {
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::Cancelled => Error::Cancelled,
            Interrupt::DeadlineExceeded => Error::DeadlineExceeded,
        }
    }
}

impl From<pool::JobFault> for Error {
    fn from(f: pool::JobFault) -> Self {
        match f {
            pool::JobFault::Panicked(m) => Error::TaskPanicked(m),
            pool::JobFault::Interrupted(i) => i.into(),
        }
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Cancelled => Error::Cancelled,
            QueryError::DeadlineExceeded => Error::DeadlineExceeded,
            QueryError::Panicked(m) => Error::TaskPanicked(m),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::InvalidState(m) => write!(f, "invalid state: {m}"),
            Error::Cancelled => write!(f, "cancelled"),
            Error::DeadlineExceeded => write!(f, "deadline exceeded"),
            Error::TaskPanicked(m) => write!(f, "worker task panicked: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;
