//! The AT-GIS engine: translates Table 3 queries into parallel
//! pipeline executions over raw datasets (§4).

use crate::batch::{self, IndexCache, Source};
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::executor::{resolve_threads, run_blocks_on};
use crate::join::{ProbeStrategy, Reparser};
use crate::partition::{AdaptiveConfig, ArrayStore, GridSpec, PartEntry};
use crate::pipeline::{FatGeoJsonFrag, FatWktFrag, QueryAggregate};
use crate::pool::WorkerPool;
use crate::query::{FilterStrategy, Query};
use crate::shard::ShardSet;
use crate::stats::Timings;
use crate::{Error, Result};
use atgis_formats::feature::{MetadataFilter, RawFeature};
use atgis_formats::{fixed_blocks, marker_blocks, Format, Mode, ParseError};
use atgis_geometry::{Geometry, Mbr, Polygon};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration builder.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    pub(crate) mode: Mode,
    block_multiplier: usize,
    pub(crate) cell_deg: f64,
    pub(crate) grid_extent: Mbr,
    pub(crate) adaptive: AdaptiveConfig,
    pub(crate) probe: ProbeStrategy,
    persist_root: Option<std::path::PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            threads: 1,
            mode: Mode::Pat,
            block_multiplier: 4,
            cell_deg: 1.0,
            grid_extent: Mbr::new(-180.0, -90.0, 180.0, 90.0),
            adaptive: AdaptiveConfig::default(),
            probe: ProbeStrategy::Auto,
            persist_root: None,
        }
    }
}

impl EngineBuilder {
    /// Worker threads for all parallel phases. `0` means "match the
    /// machine" (`std::thread::available_parallelism`). The default is
    /// 1 (fully sequential) so results are reproducible on any host
    /// unless parallelism is asked for; per-job worker counts are
    /// always clamped to the number of work items, so small inputs
    /// never oversubscribe.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// FAT vs PAT execution (§5's AT-GIS-FAT / AT-GIS-PAT).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Blocks per thread (more blocks = better load balance, more
    /// merge work).
    pub fn block_multiplier(mut self, m: usize) -> Self {
        self.block_multiplier = m.max(1);
        self
    }

    /// Partition cell size in degrees (§5.6 sweeps 0.25–4).
    pub fn cell_size(mut self, deg: f64) -> Self {
        self.cell_deg = deg;
        self
    }

    /// Extent covered by the partition grid.
    pub fn grid_extent(mut self, extent: Mbr) -> Self {
        self.grid_extent = extent;
        self
    }

    /// Target objects per join partition for the skew-adaptive
    /// second-level split: grid cells holding more entries are split
    /// into their own sub-grid. `0` keeps the pure uniform grid.
    pub fn partition_target(mut self, n: usize) -> Self {
        self.adaptive.target_per_cell = n;
        self
    }

    /// Full skew-adaptive split configuration (target, sub-grid cap,
    /// replication budget).
    pub fn adaptive_config(mut self, cfg: AdaptiveConfig) -> Self {
        self.adaptive = cfg;
        self
    }

    /// MBR COMPARE algorithm selection for joins (sweep vs R-tree
    /// probe; the default picks per partition by cost).
    pub fn probe_strategy(mut self, probe: ProbeStrategy) -> Self {
        self.probe = probe;
        self
    }

    /// Roots the engine's persistent snapshot store at `path`
    /// (created if missing): sessions spill their derived state
    /// (partition indexes, shard layouts, cached aggregates) there and
    /// warm-start from it after a restart — see [`crate::persist`].
    /// An unopenable store degrades to the ordinary in-memory-only
    /// behaviour rather than failing the build.
    pub fn persist_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.persist_root = Some(path.into());
        self
    }

    /// Finalises the engine, spawning its persistent worker pool
    /// (`threads - 1` pool workers; the query-submitting thread is the
    /// remaining execution unit). The pool outlives individual queries
    /// and is shared by clones of the engine.
    pub fn build(mut self) -> Engine {
        self.threads = resolve_threads(self.threads);
        let pool = Arc::new(WorkerPool::new(self.threads.saturating_sub(1)));
        let persist = self
            .persist_root
            .as_ref()
            .and_then(|root| crate::persist::PersistStore::open(root).ok().map(Arc::new));
        Engine {
            config: self,
            pool,
            persist,
        }
    }
}

/// The query engine: a configuration plus a persistent worker pool,
/// executing Table 3 queries over raw [`Dataset`] bytes. Cloning
/// shares the underlying worker pool.
///
/// ```
/// use atgis::{Dataset, Engine, ExecOptions, Query};
/// use atgis_formats::{Format, Mode};
/// use atgis_geometry::Mbr;
///
/// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(3).generate(100));
/// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
/// let engine = Engine::builder().threads(2).mode(Mode::Pat).build();
/// let opts = ExecOptions::new();
///
/// let matches = engine
///     .run(&[Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0))], &dataset, &opts)
///     .unwrap()
///     .into_single()
///     .unwrap();
/// assert!(!matches.matches().is_empty());
///
/// let joined = engine
///     .run(&[Query::join(50)], &dataset, &opts)
///     .unwrap()
///     .into_single()
///     .unwrap();
/// for pair in joined.joined() {
///     assert!(pair.left_id < 50 && pair.right_id >= 50);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: EngineBuilder,
    pool: Arc<WorkerPool>,
    persist: Option<Arc<crate::persist::PersistStore>>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The engine configuration (the batch planner reads partitioning
    /// knobs from it).
    pub(crate) fn config(&self) -> &EngineBuilder {
        &self.config
    }

    /// The engine's persistent worker pool.
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The engine's persistent snapshot store, when one was configured
    /// with [`EngineBuilder::persist_path`] and opened successfully.
    pub fn persist(&self) -> Option<&Arc<crate::persist::PersistStore>> {
        self.persist.as_ref()
    }

    /// Area of the configured partition-grid extent (the scheduler's
    /// selectivity denominator).
    pub(crate) fn grid_extent_area(&self) -> f64 {
        self.config.grid_extent.area()
    }

    /// The unified entry point: executes `queries` over `dataset`
    /// under one [`ExecOptions`] request — cancellation, deadline,
    /// timing, fault isolation and sharded scatter–gather are fields,
    /// not method-name permutations (see [`crate::exec`]).
    ///
    /// Every call is one shared-scan batch ([`crate::batch`]): a single
    /// query is a batch of one, and [`ExecOptions::shards`] only swaps
    /// the scan step for a scatter–gather over a [`ShardSet`]. Results
    /// are bit-identical across batch mates and every shard count.
    ///
    /// ```
    /// use atgis::{Dataset, Engine, ExecOptions, Query};
    /// use atgis_formats::Format;
    /// use atgis_geometry::Mbr;
    ///
    /// let bytes = atgis_datagen::write_geojson(&atgis_datagen::OsmGenerator::new(4).generate(80));
    /// let dataset = Dataset::from_bytes(bytes, Format::GeoJson);
    /// let engine = Engine::builder().threads(2).build();
    /// let queries = vec![
    ///     Query::containment(Mbr::new(-10.0, 40.0, 10.0, 60.0)),
    ///     Query::join(40),
    /// ];
    ///
    /// // One shared parse pass, timed, scattered over 4 shards.
    /// let out = engine
    ///     .run(&queries, &dataset, &ExecOptions::new().timed().sharded(4))
    ///     .unwrap();
    /// let stats = out.shard_stats().expect("sharded run");
    /// assert!(stats.shards >= 1);
    /// // Bit-identical to the same query alone, on one node.
    /// let solo = engine
    ///     .run(&queries[..1], &dataset, &ExecOptions::new())
    ///     .unwrap();
    /// assert_eq!(out.outcomes[0], solo.outcomes[0]);
    /// ```
    pub fn run(
        &self,
        queries: &[Query],
        dataset: &Dataset,
        opts: &ExecOptions,
    ) -> Result<RunOutcome> {
        let token = opts.effective_token();
        let shards = opts.shards.resolve(self.threads());
        let set = if shards > 1 {
            Some(ShardSet::build(self, dataset, shards, token.as_ref())?)
        } else {
            None
        };
        let (outcomes, stats, _) = batch::execute(
            self,
            queries,
            Source::dataset(dataset, set.as_ref()),
            &IndexCache::new(),
            token.as_ref(),
        )?;
        exec::finish_run(outcomes, Some(stats), None, None, opts)
    }

    /// Resolves `FilterStrategy::Auto` with the paper's ~25% rule: the
    /// fraction of the dataset extent selected by the region estimates
    /// selectivity (§5.4: below ~25% selected, buffering wins).
    pub(crate) fn resolve_strategy(
        &self,
        strategy: FilterStrategy,
        region: &Polygon,
    ) -> FilterStrategy {
        match strategy {
            FilterStrategy::Auto => {
                let world = self.config.grid_extent.area();
                let selected = region.mbr().area();
                if world > 0.0 && selected / world >= 0.25 {
                    FilterStrategy::Streaming
                } else {
                    FilterStrategy::Buffered
                }
            }
            s => s,
        }
    }

    /// Number of blocks for a parallel pass.
    pub(crate) fn block_count(&self) -> usize {
        self.config.threads * self.config.block_multiplier
    }

    /// Runs a single-pass pipeline with the given aggregate prototype
    /// — the low-level API for custom aggregates and metadata filters
    /// pushed into the parse stage.
    pub fn single_pass<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        proto: A,
    ) -> Result<(A, Timings)> {
        self.single_pass_cancellable(dataset, filter, proto, None)
    }

    /// [`Engine::single_pass`] under an optional [`CancelToken`]: the
    /// token is observed between blocks (a tripped token skips every
    /// not-yet-started block and the pass returns
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`]), and a
    /// panicking aggregate fails only this pass
    /// ([`Error::TaskPanicked`]) — the pool survives.
    pub fn single_pass_cancellable<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        proto: A,
        token: Option<&CancelToken>,
    ) -> Result<(A, Timings)> {
        self.scan_range_cancellable(dataset, 0, dataset.bytes().len(), filter, proto, token)
    }

    /// The execution mode a scan of `dataset` resolves to: `Adaptive`
    /// picks Pat/Fat from the full input's marker density, so every
    /// byte-range shard of one dataset scans in the same mode as a
    /// single-node pass.
    pub(crate) fn resolve_mode(&self, dataset: &Dataset) -> Mode {
        match self.config.mode {
            Mode::Adaptive => {
                let marker: &[u8] = match dataset.format() {
                    Format::GeoJson => atgis_formats::geojson::FEATURE_MARKER,
                    _ => b"\n",
                };
                atgis_formats::resolve_adaptive(dataset.bytes(), marker, self.block_count())
            }
            m => m,
        }
    }

    /// [`Engine::single_pass_cancellable`] restricted to the byte
    /// range `[start, end)` — the shard scan primitive. Blocks are
    /// split within the range but carry **absolute** offsets, so
    /// features keep their global identity (offset/len) and results
    /// over marker-aligned ranges compose bit-identically with
    /// single-node execution. OSM XML (whose relations need the global
    /// node table) parses the full document and absorbs only features
    /// whose offset falls in the range; sharded batch execution parses
    /// once and buckets instead of calling this per shard.
    pub(crate) fn scan_range_cancellable<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        start: usize,
        end: usize,
        filter: &MetadataFilter,
        proto: A,
        token: Option<&CancelToken>,
    ) -> Result<(A, Timings)> {
        let input = dataset.bytes();
        let slice = &input[start..end];
        let threads = self.config.threads;
        let n = self.block_count();
        let shift = |mut blocks: Vec<atgis_formats::Block>| {
            if start > 0 {
                for b in &mut blocks {
                    b.start += start;
                    b.end += start;
                }
            }
            blocks
        };
        let mode = self.resolve_mode(dataset);
        match (dataset.format(), mode) {
            (Format::GeoJson, Mode::Pat) => {
                let started = Instant::now();
                let blocks = shift(marker_blocks(
                    slice,
                    atgis_formats::geojson::FEATURE_MARKER,
                    n,
                ));
                let split = started.elapsed();
                let (merged, mut t) = run_blocks_on(
                    &self.pool,
                    &blocks,
                    threads,
                    token,
                    |b| {
                        let mut features = Vec::new();
                        atgis_formats::geojson::fast::parse_block(
                            input,
                            b.start,
                            b.end,
                            filter,
                            &mut features,
                        )?;
                        let mut a = proto.clone();
                        for f in &features {
                            a.absorb(f);
                        }
                        Ok::<_, Error>(a)
                    },
                    |a, b| Ok(a.combine(b)),
                );
                t.split = split;
                Ok((merged?.unwrap_or(proto), t))
            }
            (Format::GeoJson, _) => {
                let started = Instant::now();
                let blocks = shift(fixed_blocks(slice.len(), n));
                let split = started.elapsed();
                let (merged, mut t) = run_blocks_on(
                    &self.pool,
                    &blocks,
                    threads,
                    token,
                    |b| FatGeoJsonFrag::process(input, b, filter, &proto).map_err(Error::Parse),
                    |a, b| a.merge(b, input, filter).map_err(Error::Parse),
                );
                t.split = split;
                let started = Instant::now();
                let agg = match merged? {
                    Some(m) => m.finalize(input, filter)?,
                    None => proto,
                };
                t.merge += started.elapsed();
                Ok((agg, t))
            }
            (Format::Wkt, Mode::Pat) => {
                let started = Instant::now();
                let blocks = shift(marker_blocks(slice, b"\n", n));
                let split = started.elapsed();
                let (merged, mut t) = run_blocks_on(
                    &self.pool,
                    &blocks,
                    threads,
                    token,
                    |b| {
                        let mut a = proto.clone();
                        let mut features = Vec::new();
                        // Rows starting within the block.
                        parse_wkt_rows(input, b.start, b.end, filter, &mut features)?;
                        for f in &features {
                            a.absorb(f);
                        }
                        Ok::<_, Error>(a)
                    },
                    |a, b| Ok(a.combine(b)),
                );
                t.split = split;
                Ok((merged?.unwrap_or(proto), t))
            }
            (Format::Wkt, _) => {
                let started = Instant::now();
                let blocks = shift(fixed_blocks(slice.len(), n));
                let split = started.elapsed();
                let (merged, mut t) = run_blocks_on(
                    &self.pool,
                    &blocks,
                    threads,
                    token,
                    |b| FatWktFrag::process(input, b, filter, &proto).map_err(Error::Parse),
                    |a, b| a.merge(b, input, filter).map_err(Error::Parse),
                );
                t.split = split;
                let started = Instant::now();
                let agg = match merged? {
                    Some(m) => m.finalize(input, filter)?,
                    None => proto,
                };
                t.merge += started.elapsed();
                Ok((agg, t))
            }
            (Format::OsmXml, _) => {
                let (features, t) = self.parse_xml(dataset, filter, token)?;
                let started = Instant::now();
                let whole = start == 0 && end == input.len();
                let mut a = proto;
                for f in &features {
                    if whole || ((start as u64) <= f.offset && f.offset < end as u64) {
                        a.absorb(f);
                    }
                }
                let mut t = t;
                t.merge += started.elapsed();
                Ok((a, t))
            }
        }
    }

    /// The XML parse (§4.4): one block-parallel collection pass that
    /// builds the temporary table of points, ways and relations
    /// (blocks merge by concatenation), then sequential assembly
    /// against it.
    pub(crate) fn parse_xml(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<RawFeature>, Timings)> {
        use atgis_formats::osmxml;
        let input = dataset.bytes();
        let started = Instant::now();
        let blocks = marker_blocks(input, b"\n", self.block_count());
        let split = started.elapsed();

        let (table, mut t) = run_blocks_on(
            &self.pool,
            &blocks,
            self.config.threads,
            token,
            |b| osmxml::collect_block(input, b.start, b.end).map_err(Error::Parse),
            |mut a, b| {
                a.append(b);
                Ok(a)
            },
        );
        let started = Instant::now();
        let features = osmxml::assemble(table?.unwrap_or_default(), filter);
        t.split = split;
        t.merge += started.elapsed();
        Ok((features, t))
    }

    /// Parses the dataset once into an offset→geometry table: XML
    /// joins re-parse through it, since a relation's geometry needs
    /// the node table.
    pub(crate) fn xml_geometry_table(
        &self,
        dataset: &Dataset,
        token: Option<&CancelToken>,
    ) -> Result<HashMap<u64, Geometry>> {
        let (features, _) = self.parse_xml(dataset, &MetadataFilter::All, token)?;
        Ok(features
            .into_iter()
            .map(|f| (f.offset, f.geometry))
            .collect())
    }
}

/// Builds the format-specific single-object reparser for the join
/// pipeline.
pub(crate) fn make_reparser<'a>(
    input: &'a [u8],
    format: Format,
    xml_table: Option<&'a HashMap<u64, Geometry>>,
) -> Box<Reparser<'a>> {
    match format {
        Format::GeoJson => Box::new(move |offset, _len| {
            let mut out = Vec::new();
            atgis_formats::geojson::fast::parse_block(
                input,
                offset as usize,
                offset as usize + 1,
                &MetadataFilter::All,
                &mut out,
            )?;
            out.into_iter()
                .next()
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no feature at offset"))
        }),
        Format::Wkt => Box::new(move |offset, len| {
            let end = if len == u32::MAX {
                // Length unknown: the row ends at the next newline.
                atgis_formats::split::find_marker(input, b"\n", offset as usize)
                    .unwrap_or(input.len())
            } else {
                offset as usize + len as usize
            };
            atgis_formats::wkt::parse_row(input, offset as usize, end, &MetadataFilter::All)?
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no row at offset"))
        }),
        Format::OsmXml => {
            let table = xml_table.expect("XML joins require the geometry table");
            Box::new(move |offset, _len| {
                table
                    .get(&offset)
                    .cloned()
                    .ok_or_else(|| ParseError::syntax(offset, "unknown XML object offset"))
            })
        }
    }
}

/// WKT PAT row parsing helper (rows starting within `[start, end)`).
pub(crate) fn parse_wkt_rows(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
    out: &mut Vec<RawFeature>,
) -> std::result::Result<(), ParseError> {
    let mut pos = start;
    while pos < end {
        while pos < end && input[pos] == b'\n' {
            pos += 1;
        }
        if pos >= end {
            break;
        }
        let row_end = atgis_formats::split::find_marker(input, b"\n", pos).unwrap_or(input.len());
        if let Some(f) = atgis_formats::wkt::parse_row(input, pos, row_end, filter)? {
            out.push(f);
        }
        pos = row_end + 1;
    }
    Ok(())
}

/// The join partition pass: bounds geometries and scatters them into
/// grid cells inside the associative scan, building one side-agnostic
/// index that every join-class query of a batch reads; sides resolve
/// per query at join time.
#[derive(Clone)]
pub(crate) struct PartitionAgg {
    pub(crate) grid: GridSpec,
    pub(crate) store: ArrayStore,
}

impl QueryAggregate for PartitionAgg {
    fn identity() -> Self {
        unreachable!("constructed by the engine with grid parameters")
    }

    fn absorb(&mut self, f: &RawFeature) {
        let entry = PartEntry::from_feature(f);
        for cell in self.grid.cells_for(&entry.mbr) {
            self.store.push(cell, entry);
        }
    }

    fn combine(mut self, other: Self) -> Self {
        self.store = self.store.merge(other.store);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::QueryResult;
    use crate::stats::JoinDecisions;
    use crate::testutil::RunExt;
    use atgis_datagen::{write_geojson, write_wkt, OsmGenerator};

    fn dataset(n: usize, format: Format) -> Dataset {
        let ds = OsmGenerator::new(500).generate(n);
        let bytes = match format {
            Format::GeoJson => write_geojson(&ds),
            Format::Wkt => write_wkt(&ds),
            Format::OsmXml => atgis_datagen::write_osm_xml(&ds),
        };
        Dataset::from_bytes(bytes, format)
    }

    /// A timed one-query run: the result plus the join's decisions.
    fn timed_join(engine: &Engine, q: &Query, ds: &Dataset) -> (QueryResult, JoinDecisions) {
        let out = engine
            .run(std::slice::from_ref(q), ds, &ExecOptions::new().timed())
            .unwrap();
        let decisions = out.batch.as_ref().unwrap().per_query[0]
            .decisions
            .expect("join reports decisions");
        (out.into_single().unwrap(), decisions)
    }

    #[test]
    fn containment_whole_world_selects_everything() {
        let ds = dataset(80, Format::GeoJson);
        let engine = Engine::builder().threads(2).build();
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let r = engine.exec1(&q, &ds).unwrap();
        assert_eq!(r.matches().len(), 80);
    }

    #[test]
    fn containment_empty_region_selects_nothing() {
        let ds = dataset(50, Format::GeoJson);
        let engine = Engine::builder().build();
        let q = Query::containment(Mbr::new(100.0, -80.0, 101.0, -79.0));
        let r = engine.exec1(&q, &ds).unwrap();
        assert!(r.matches().is_empty());
    }

    #[test]
    fn fat_and_pat_agree_on_containment() {
        let ds = dataset(60, Format::GeoJson);
        let q = Query::containment(Mbr::new(-5.0, 45.0, 5.0, 55.0));
        let pat = Engine::builder().mode(Mode::Pat).threads(2).build();
        let fat = Engine::builder().mode(Mode::Fat).threads(2).build();
        let a = pat.exec1(&q, &ds).unwrap();
        let b = fat.exec1(&q, &ds).unwrap();
        assert_eq!(a.matches(), b.matches());
        assert!(!a.matches().is_empty(), "region should select something");
    }

    #[test]
    fn aggregation_counts_match_containment() {
        let ds = dataset(70, Format::GeoJson);
        let region = Mbr::new(-5.0, 45.0, 5.0, 55.0);
        let engine = Engine::builder().threads(2).build();
        let matches = engine
            .exec1(&Query::containment(region), &ds)
            .unwrap()
            .matches()
            .len() as u64;
        let agg = engine
            .exec1(&Query::aggregation(region), &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        assert_eq!(agg.count, matches);
        assert!(agg.total_area > 0.0);
        assert!(agg.total_perimeter > 0.0);
    }

    #[test]
    fn formats_agree_on_aggregation() {
        let region = Mbr::new(-10.0, 40.0, 10.0, 60.0);
        let engine = Engine::builder().threads(2).build();
        let g = engine
            .exec1(&Query::aggregation(region), &dataset(40, Format::GeoJson))
            .unwrap()
            .aggregate()
            .unwrap();
        let w = engine
            .exec1(&Query::aggregation(region), &dataset(40, Format::Wkt))
            .unwrap()
            .aggregate()
            .unwrap();
        assert_eq!(g.count, w.count);
        assert!((g.total_area - w.total_area).abs() / g.total_area.max(1.0) < 1e-4);
    }

    #[test]
    fn join_finds_intersecting_pairs() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().threads(2).cell_size(2.0).build();
        let r = engine.exec1(&Query::join(30), &ds).unwrap();
        // Pairs must respect the id partition.
        for p in r.joined() {
            assert!(p.left_id < 30, "{p:?}");
            assert!(p.right_id >= 30, "{p:?}");
        }
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for p in r.joined() {
            assert!(seen.insert((p.left_offset, p.right_offset)), "dup {p:?}");
        }
    }

    #[test]
    fn join_matches_brute_force() {
        let gen = OsmGenerator::new(501).generate(50);
        let bytes = write_geojson(&gen);
        let ds = Dataset::from_bytes(bytes, Format::GeoJson);
        let engine = Engine::builder().threads(2).cell_size(1.0).build();
        let got: std::collections::HashSet<(u64, u64)> = engine
            .exec1(&Query::join(25), &ds)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        let mut want = std::collections::HashSet::new();
        for a in &gen.objects {
            for b in &gen.objects {
                if a.id < 25 && b.id >= 25 && atgis_geometry::intersects(&a.geometry, &b.geometry) {
                    want.insert((a.id, b.id));
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn wkt_join_agrees_with_geojson_join() {
        let gen = OsmGenerator::new(502).generate(40);
        let g = Dataset::from_bytes(write_geojson(&gen), Format::GeoJson);
        let w = Dataset::from_bytes(write_wkt(&gen), Format::Wkt);
        let engine = Engine::builder().cell_size(2.0).build();
        let q = Query::join(20);
        let pg: Vec<(u64, u64)> = engine
            .exec1(&q, &g)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        let pw: Vec<(u64, u64)> = engine
            .exec1(&q, &w)
            .unwrap()
            .joined()
            .iter()
            .map(|p| (p.left_id, p.right_id))
            .collect();
        assert_eq!(pg, pw);
    }

    #[test]
    fn combined_query_produces_union_area() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().cell_size(2.0).build();
        let r = engine
            .exec1(&Query::combined(30, 0.0, f64::INFINITY), &ds)
            .unwrap();
        match r {
            QueryResult::Combined {
                pairs,
                total_union_area,
            } => {
                if pairs > 0 {
                    assert!(total_union_area > 0.0);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn combined_filters_reduce_pairs() {
        let ds = dataset(60, Format::GeoJson);
        let engine = Engine::builder().cell_size(2.0).build();
        let all = match engine
            .exec1(&Query::combined(30, 0.0, f64::INFINITY), &ds)
            .unwrap()
        {
            QueryResult::Combined { pairs, .. } => pairs,
            _ => unreachable!(),
        };
        let filtered = match engine
            .exec1(&Query::combined(30, 1e9, f64::INFINITY), &ds)
            .unwrap()
        {
            QueryResult::Combined { pairs, .. } => pairs,
            _ => unreachable!(),
        };
        assert!(filtered <= all);
        assert_eq!(filtered, 0, "1e9 m perimeter filter rejects everything");
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let ds = dataset(80, Format::GeoJson);
        let q = Query::aggregation(Mbr::new(-10.0, 40.0, 10.0, 60.0));
        let base = Engine::builder()
            .threads(1)
            .build()
            .exec1(&q, &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        for threads in [2, 3, 8] {
            let got = Engine::builder()
                .threads(threads)
                .build()
                .exec1(&q, &ds)
                .unwrap()
                .aggregate()
                .unwrap();
            assert_eq!(got.count, base.count, "threads={threads}");
            assert!((got.total_area - base.total_area).abs() / base.total_area.max(1.0) < 1e-9);
        }
    }

    #[test]
    fn xml_containment_counts_objects() {
        let ds = dataset(40, Format::OsmXml);
        let engine = Engine::builder().threads(2).build();
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let r = engine.exec1(&q, &ds).unwrap();
        // Collections flatten into multiple ways, so >= is correct;
        // ways with <2 resolvable points are dropped.
        assert!(!r.matches().is_empty());
    }

    #[test]
    fn adaptive_partitioning_preserves_join_results() {
        let ds = dataset(120, Format::GeoJson);
        let q = Query::join(60);
        let uniform = Engine::builder()
            .threads(2)
            .cell_size(4.0)
            .partition_target(0)
            .build();
        // Tiny target to force splits on this small dataset.
        let adaptive = Engine::builder()
            .threads(2)
            .cell_size(4.0)
            .partition_target(4)
            .build();
        let (u, ud) = timed_join(&uniform, &q, &ds);
        let (a, ad) = timed_join(&adaptive, &q, &ds);
        assert_eq!(u.joined(), a.joined());
        assert_eq!(ud.map.split_cells, 0, "uniform never splits");
        assert!(ad.map.split_cells > 0, "tiny target must split: {ad:?}");
        assert!(ad.map.slots > ud.map.slots);
    }

    #[test]
    fn probe_strategies_agree_at_engine_level() {
        let ds = dataset(80, Format::GeoJson);
        let q = Query::join(40);
        let sweep = Engine::builder()
            .cell_size(4.0)
            .probe_strategy(crate::join::ProbeStrategy::Sweep)
            .build();
        let rtree = Engine::builder()
            .cell_size(4.0)
            .probe_strategy(crate::join::ProbeStrategy::RTree)
            .build();
        let (s, _) = timed_join(&sweep, &q, &ds);
        let (r, d) = timed_join(&rtree, &q, &ds);
        assert_eq!(s.joined(), r.joined());
        assert!(
            d.rtree_partitions > 0,
            "forced probe must be recorded: {d:?}"
        );
        assert_eq!(d.sweep_partitions, 0);
    }

    #[test]
    fn xml_join_runs() {
        let ds = dataset(30, Format::OsmXml);
        let engine = Engine::builder().cell_size(2.0).build();
        let r = engine.exec1(&Query::join(15), &ds).unwrap();
        for p in r.joined() {
            assert!(p.left_id < 15 && p.right_id >= 15);
        }
    }

    #[test]
    fn timed_solo_xml_join_reports_every_parse_pass() {
        // A one-query run is a batch of one, so its stats count the
        // partition pass and the node-table pass exactly as the same
        // join does inside a larger batch.
        let ds = dataset(30, Format::OsmXml);
        let engine = Engine::builder().cell_size(2.0).build();
        let join = Query::join(15);
        let world = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let timed = ExecOptions::new().timed();
        let solo = engine
            .run(std::slice::from_ref(&join), &ds, &timed)
            .unwrap();
        let mixed = engine.run(&[join, world], &ds, &timed).unwrap();
        let (solo, mixed) = (solo.batch.unwrap(), mixed.batch.unwrap());
        assert_eq!(solo.scan_passes, 2, "partition pass + node-table pass");
        assert_eq!(solo.scan_passes, mixed.scan_passes);
        assert!(solo.per_query[0].decisions.is_some());
        assert!(mixed.per_query[0].decisions.is_some());
    }
}
