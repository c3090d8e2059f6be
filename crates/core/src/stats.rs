//! Phase timing instrumentation for the evaluation harness.
//!
//! Figs. 11 and 15 report the processing (P) and merge (M) phase times
//! of each pipeline separately; [`Timings`] captures them.
//! [`JoinDecisions`] additionally records what the skew-adaptive join
//! decided — how many hot cells were split and which MBR-compare
//! algorithm each partition ran — so the Fig. 14 experiments can
//! attribute throughput differences to specific decisions.

use crate::partition::PartitionMapStats;
use crate::scheduler::Priority;
use std::time::Duration;

/// Wall-clock timings of one pipeline execution (Fig. 5's phases).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Time to compute block boundaries (marker search for PAT).
    pub split: Duration,
    /// Time for the parallel processing phase (longest pole).
    pub process: Duration,
    /// Time for the in-order fragment merge.
    pub merge: Duration,
}

impl Timings {
    /// Total of all phases.
    pub fn total(&self) -> Duration {
        self.split + self.process + self.merge
    }
}

/// Timings for the two pipelines of a join query (Fig. 11 splits
/// "Partition" from "Join").
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinTimings {
    /// First pass: parse + bound + partition.
    pub partition: Timings,
    /// Partition-map sealing between the passes (the sort by cell +
    /// hot-cell splitting).
    pub refine: Duration,
    /// Second pass: MBR compare → sort → re-parse → refine.
    pub join: Timings,
    /// Final duplicate elimination.
    pub dedup: Duration,
}

impl JoinTimings {
    /// Total of both pipelines.
    pub fn total(&self) -> Duration {
        self.partition.total() + self.refine + self.join.total() + self.dedup
    }
}

/// What the skew-adaptive join decided for one query: the shape of the
/// refined partition map plus the per-partition MBR COMPARE algorithm
/// tally and the inputs the cost model saw (side asymmetry *and*
/// partition density — objects per square degree of the slot's
/// region).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JoinDecisions {
    /// Shape of the (possibly refined) partition map.
    pub map: PartitionMapStats,
    /// Partitions answered with the sort + sweep.
    pub sweep_partitions: u64,
    /// Partitions answered with the R-tree bulk-load + probe: always
    /// `rtree_by_asymmetry + rtree_by_density`.
    pub rtree_partitions: u64,
    /// R-tree picks attributed to side asymmetry.
    pub rtree_by_asymmetry: u64,
    /// R-tree picks attributed to partition density alone
    /// (dense, roughly symmetric partitions where the sweep's window
    /// scans degrade).
    pub rtree_by_density: u64,
    /// Largest observed partition density (objects per square degree)
    /// across non-empty partitions; 0 when the map carries no grid
    /// geometry to derive areas from.
    pub max_partition_density: f64,
}

impl JoinDecisions {
    /// Seeds the decision record from a built partition map; the probe
    /// tallies accumulate as partitions execute.
    pub fn from_map(map: PartitionMapStats) -> Self {
        JoinDecisions {
            map,
            ..JoinDecisions::default()
        }
    }
}

/// What one streaming ingestion did: how the stream arrived, how it
/// was dispatched, and the evidence for the bounded-memory claim
/// (live fragments never exceed the in-flight task count, regardless
/// of how many chunks the stream had).
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Chunks ingested from the source (including empty ones).
    pub chunks: u64,
    /// Total bytes ingested.
    pub bytes: u64,
    /// Blocks dispatched to the worker pool, over every region (the
    /// name predates the count; it is not the number of regions).
    pub regions: u64,
    /// Pairwise fragment merges, within regions and across them.
    pub merges: u64,
    /// Peak number of fragments alive at any instant: one region's
    /// in-flight runs plus the accumulator carried from earlier
    /// regions — `O(workers)`, not the chunk count.
    pub peak_fragments: u64,
    /// Time the pipelined driver spent blocked waiting on the chunk
    /// source — the I/O-bound indicator.
    pub ingest_wait: Duration,
    /// Transient chunk-read errors (`Interrupted`/`WouldBlock`/
    /// `TimedOut`) absorbed by the bounded retry-with-backoff in the
    /// pipelined driver; each retry that eventually succeeded (or
    /// exhausted the bound) counts once.
    pub retries: u64,
}

/// Per-query breakdown inside one batch execution: how much shared
/// scan the query rode on, plus the work only it caused.
#[derive(Debug, Clone, Default)]
pub struct BatchQueryStats {
    /// The shared structural scan this query was served from (the same
    /// pass is reported for every member — that is the amortisation).
    pub scan: Duration,
    /// Join-pipeline breakdown when the query joins (its `partition`
    /// field repeats the shared scan; `refine`/`join`/`dedup` are this
    /// query's own).
    pub join: Option<JoinTimings>,
    /// Partition-map shape and probe decisions when the query joins.
    pub decisions: Option<JoinDecisions>,
    /// Per-query result finalisation (match ordering, aggregate
    /// extraction, the combined query's union-area step).
    pub finalize: Duration,
    /// Everything attributed to this query: shared scan + own join
    /// work + finalisation. Join processing inside the flattened
    /// (query × partition) fan-out is attributed by summing the
    /// query's own partition tasks, so `wall` is worker-time, not
    /// elapsed time.
    pub wall: Duration,
}

/// What one batch `run` call did: per-query breakdowns plus the
/// shared-scan amortisation the batch achieved.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Queries served by the batch.
    pub queries: u64,
    /// Full-input parse passes actually executed (the shared scan, and
    /// for OSM XML joins the node-table pass; `0` when a cached
    /// partition index served a join-only batch with no scan at all).
    pub scan_passes: u64,
    /// Timings of the one shared scan (zero when no scan ran).
    pub shared_scan: Timings,
    /// Per-query breakdowns, in submission order.
    pub per_query: Vec<BatchQueryStats>,
    /// Scatter–gather accounting when the batch ran sharded (`None`
    /// for single-node execution and for a one-shard layout, which
    /// every OSM-XML layout is).
    pub shards: Option<ShardStats>,
}

/// Scatter–gather accounting for one sharded batch: how queries fanned
/// out across shards (MBR pruning included) and what each shard cost.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shards in the [`crate::shard::ShardSet`] the batch ran over.
    pub shards: u64,
    /// (query, shard) scatter pairs actually executed.
    pub scattered: u64,
    /// (query, shard) pairs skipped because the query's region cannot
    /// intersect the shard's MBR. `scattered + pruned` =
    /// `queries × shards`.
    pub pruned: u64,
    /// Per-query gather merges performed (one per query per extra
    /// shard it scattered to).
    pub gathered: u64,
    /// Per-shard timings, in shard (byte-range) order.
    pub per_shard: Vec<ShardTiming>,
}

/// What one shard contributed to a sharded batch.
#[derive(Debug, Clone, Default)]
pub struct ShardTiming {
    /// Queries scattered to this shard.
    pub queries: u64,
    /// The shard's scan-pipeline timings (zero when every query was
    /// pruned and no index build touched the shard).
    pub scan: Timings,
}

impl BatchStats {
    /// Queries served per structural parse pass — the shared-scan
    /// amortisation ratio. Sequential per-query execution scores 1.0
    /// (one pass per query); a batch of N single-pass queries scores
    /// N; a join-only batch over a session-cached partition index
    /// reports `queries` over the `scan_passes.max(1)` floor.
    pub fn amortisation_ratio(&self) -> f64 {
        self.queries as f64 / self.scan_passes.max(1) as f64
    }
}

/// One admission wave of a scheduled batch: the unique queries it
/// carried, the cost estimate admission grouped it by, and the
/// underlying shared-scan [`BatchStats`].
#[derive(Debug, Clone, Default)]
pub struct WaveStats {
    /// Unique queries executed in this wave.
    pub queries: u64,
    /// Summed estimated cost (scan-equivalents) admission assigned to
    /// the wave's members (0 for streamed waves, which are never
    /// split).
    pub estimated_cost: f64,
    /// Wall-clock time from batch submission to this wave's
    /// completion — the latency every query in the wave observed.
    pub elapsed: Duration,
    /// The SLO class every member of this wave was admitted under
    /// (waves never mix classes; interactive waves run first).
    pub priority: Priority,
    /// The wave's shared-scan execution breakdown.
    pub batch: BatchStats,
}

/// What one scheduled batch did: how many submitted queries collapsed
/// through predicate dedup and the aggregate cache, how admission
/// split the remainder into waves, and the completion latency of
/// every submitted query (the stall-free evidence — a cheap query's
/// latency is its own wave's, not the batch maximum).
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Queries submitted.
    pub queries: u64,
    /// Queries actually executed (after dedup and cache hits).
    pub unique_queries: u64,
    /// Queries answered by sharing another submission's sink
    /// (predicate dedup).
    pub dedup_hits: u64,
    /// Queries answered from the cross-batch aggregate cache without
    /// any execution.
    pub cache_hits: u64,
    /// Structural parse passes across all waves.
    pub scan_passes: u64,
    /// Per-wave breakdowns, in execution order (cheap wave first,
    /// then outliers by ascending estimated cost).
    pub waves: Vec<WaveStats>,
    /// Completion latency of every **submitted** query, in submission
    /// order: the wall-clock from batch submission until the wave
    /// resolving that query (or its cache/dedup source) finished.
    pub latencies: Vec<Duration>,
    /// SLO class of every submitted query, parallel to `latencies`
    /// (all [`Priority::Interactive`] for the unprioritized entry
    /// points).
    pub classes: Vec<Priority>,
    /// Queries that ended with [`crate::QueryError::Cancelled`]
    /// because the batch's [`crate::CancelToken`] was cancelled.
    pub cancelled: u64,
    /// Queries that ended with
    /// [`crate::QueryError::DeadlineExceeded`] because the token's
    /// deadline elapsed mid-execution.
    pub deadline_exceeded: u64,
    /// Queries that ended with [`crate::QueryError::Panicked`]: a
    /// panic hit their work (their aggregate sink, a byte range they
    /// were scattered to, or the join stage they share), and the
    /// failure was confined to those queries (batch mates and the
    /// worker pool were unaffected).
    pub task_panics: u64,
}

impl SchedulerStats {
    /// An empty record for a batch of `queries` submissions.
    pub fn new(queries: usize) -> Self {
        SchedulerStats {
            queries: queries as u64,
            latencies: vec![Duration::ZERO; queries],
            classes: vec![Priority::default(); queries],
            ..SchedulerStats::default()
        }
    }

    /// Appends one served query to a cumulative record — how a serving
    /// tier folds per-request completions into the stats it reports,
    /// without ever constructing a fake batch.
    pub fn record(&mut self, class: Priority, latency: Duration) {
        self.queries += 1;
        self.latencies.push(latency);
        self.classes.push(class);
    }

    /// Submitted queries served per structural parse pass — the
    /// scheduler-level amortisation (dedup and cache hits push this
    /// *above* the batch-layer ratio, because they add served queries
    /// without adding scans).
    pub fn amortisation_ratio(&self) -> f64 {
        self.queries as f64 / self.scan_passes.max(1) as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank) of the per-query
    /// completion latencies; zero for an empty batch.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        nearest_rank(&sorted, p)
    }

    /// Nearest-rank percentiles for several `ps` at once, sorting the
    /// latency vector **once** — the shape a stats endpoint polls (p50
    /// / p95 / p99 per class per tick), where per-call re-sorting is
    /// quadratic noise. Each returned entry is exactly what
    /// [`SchedulerStats::latency_percentile`] returns for the same
    /// `p`.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<Duration> {
        let mut sorted = self.latencies.clone();
        sorted.sort();
        ps.iter().map(|&p| nearest_rank(&sorted, p)).collect()
    }

    /// Completion latencies of the queries submitted under `class`, in
    /// submission order.
    pub fn class_latencies(&self, class: Priority) -> Vec<Duration> {
        self.latencies
            .iter()
            .zip(&self.classes)
            .filter(|&(_, &c)| c == class)
            .map(|(&l, _)| l)
            .collect()
    }

    /// Nearest-rank percentiles over only the queries submitted under
    /// `class`, sorting once; all zeros when the class had no
    /// submissions. This is the per-class SLO report: an interactive
    /// p95 that stays below the batch p95 under load is the
    /// class-ordered admission working.
    pub fn class_latency_percentiles(&self, class: Priority, ps: &[f64]) -> Vec<Duration> {
        let mut sorted = self.class_latencies(class);
        sorted.sort();
        ps.iter().map(|&p| nearest_rank(&sorted, p)).collect()
    }
}

/// Nearest-rank percentile over an already-sorted slice: the exact
/// formula [`SchedulerStats::latency_percentile`] has always used
/// (`ceil(p/100 × n)` clamped to `[1, n]`, 1-indexed), zero for an
/// empty slice.
fn nearest_rank(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortisation_ratio_counts_queries_per_pass() {
        let mut s = BatchStats {
            queries: 8,
            scan_passes: 1,
            ..BatchStats::default()
        };
        assert_eq!(s.amortisation_ratio(), 8.0);
        s.scan_passes = 0; // cached-index, join-only batch
        assert_eq!(s.amortisation_ratio(), 8.0);
        s.scan_passes = 2; // XML join: scan + node-table pass
        assert_eq!(s.amortisation_ratio(), 4.0);
    }

    #[test]
    fn totals_add_up() {
        let t = Timings {
            split: Duration::from_millis(1),
            process: Duration::from_millis(20),
            merge: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(24));
        let j = JoinTimings {
            partition: t,
            refine: Duration::from_millis(4),
            join: t,
            dedup: Duration::from_millis(2),
        };
        assert_eq!(j.total(), Duration::from_millis(54));
    }

    #[test]
    fn scheduler_latency_percentiles_use_nearest_rank() {
        let mut s = SchedulerStats::new(4);
        s.latencies = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
            Duration::from_millis(40),
        ];
        assert_eq!(s.latency_percentile(50.0), Duration::from_millis(20));
        assert_eq!(s.latency_percentile(95.0), Duration::from_millis(40));
        assert_eq!(s.latency_percentile(100.0), Duration::from_millis(40));
        assert_eq!(s.latency_percentile(0.0), Duration::from_millis(10));
        assert_eq!(
            SchedulerStats::new(0).latency_percentile(50.0),
            Duration::ZERO
        );
    }

    #[test]
    fn multi_percentile_report_matches_the_single_call_exactly() {
        let mut s = SchedulerStats::new(0);
        // Unsorted on purpose: both paths must sort identically.
        for ms in [40u64, 10, 30, 20, 25] {
            s.record(Priority::Interactive, Duration::from_millis(ms));
        }
        let ps = [0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0];
        let report = s.latency_percentiles(&ps);
        for (&p, &got) in ps.iter().zip(&report) {
            assert_eq!(got, s.latency_percentile(p), "p{p} diverged");
        }
        assert!(SchedulerStats::new(0)
            .latency_percentiles(&ps)
            .iter()
            .all(|&d| d == Duration::ZERO));
    }

    #[test]
    fn per_class_percentiles_split_the_tenants() {
        let mut s = SchedulerStats::new(0);
        for ms in [10u64, 12, 11] {
            s.record(Priority::Interactive, Duration::from_millis(ms));
        }
        for ms in [100u64, 130, 120] {
            s.record(Priority::Batch, Duration::from_millis(ms));
        }
        assert_eq!(s.queries, 6);
        assert_eq!(
            s.class_latencies(Priority::Interactive),
            vec![
                Duration::from_millis(10),
                Duration::from_millis(12),
                Duration::from_millis(11)
            ]
        );
        let i = s.class_latency_percentiles(Priority::Interactive, &[50.0, 95.0]);
        let b = s.class_latency_percentiles(Priority::Batch, &[50.0, 95.0]);
        assert_eq!(
            i,
            vec![Duration::from_millis(11), Duration::from_millis(12)]
        );
        assert_eq!(
            b,
            vec![Duration::from_millis(120), Duration::from_millis(130)]
        );
        // A class with no submissions reports zeros, not a panic.
        let empty = SchedulerStats::new(0);
        assert_eq!(
            empty.class_latency_percentiles(Priority::Batch, &[95.0]),
            vec![Duration::ZERO]
        );
    }

    #[test]
    fn scheduler_amortisation_counts_all_submissions() {
        let mut s = SchedulerStats::new(16);
        s.scan_passes = 1;
        assert_eq!(s.amortisation_ratio(), 16.0);
        s.scan_passes = 0; // all-cache batch
        assert_eq!(s.amortisation_ratio(), 16.0);
    }

    #[test]
    fn decisions_seed_from_map_stats() {
        let map = PartitionMapStats {
            base_cells: 8,
            split_cells: 1,
            slots: 11,
            max_cell_entries: 100,
            max_slot_entries: 30,
        };
        let d = JoinDecisions::from_map(map);
        assert_eq!(d.map, map);
        assert_eq!(d.sweep_partitions, 0);
        assert_eq!(d.rtree_partitions, 0);
    }
}
