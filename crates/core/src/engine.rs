//! The AT-GIS engine: translates Table 3 queries into parallel
//! pipeline executions over raw datasets (§4).

use crate::batch::{self, IndexCache, Source};
use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::exec::{self, ExecOptions, RunOutcome};
use crate::executor::{resolve_threads, run_blocks_on, run_indexed_on, FoldStats};
use crate::join::Reparser;
use crate::partition::{AdaptiveConfig, ArrayStore, GridSpec, PartEntry};
use crate::pipeline::{FatGeoJsonFrag, QueryAggregate};
use crate::pool::WorkerPool;
use crate::query::{FilterStrategy, Query};
use crate::shard::ShardSet;
use crate::stats::Timings;
use crate::{Error, Result};
use atgis_formats::feature::{MetadataFilter, RawFeature};
use atgis_formats::geojson::fat;
use atgis_formats::{fixed_blocks, marker_blocks, wkt, Block, Format, Mode, ParseError};
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

    /// How GeoJSON is split: FAT or PAT (§5's AT-GIS-FAT /
    /// AT-GIS-PAT). WKT and OSM XML always split at newlines and
    /// ignore it.
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
    /// query is a batch of one, and [`ExecOptions::shards`] only cuts
    /// the scan into the byte ranges of a [`ShardSet`], pruning the
    /// ranges a query's region cannot touch. Results are bit-identical
    /// across batch mates and every shard count.
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
        let set = if opts.shards > 1 {
            Some(ShardSet::build(self, dataset, opts.shards, token.as_ref())?)
        } else {
            None
        };
        let (outcomes, stats, _) = batch::execute(
            self,
            queries,
            Source::Dataset(dataset, set.as_ref()),
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
    /// pushed into the parse stage. A panicking aggregate fails only
    /// this pass ([`Error::TaskPanicked`]) — the pool survives.
    pub fn single_pass<A: QueryAggregate>(
        &self,
        dataset: &Dataset,
        filter: &MetadataFilter,
        proto: A,
    ) -> Result<(A, Timings)> {
        self.scan_range_cancellable(dataset, 0, dataset.len(), filter, proto, None)
    }

    /// How scans of `format` cut it into blocks.
    pub(crate) fn split(&self, format: Format) -> Split {
        match format {
            Format::OsmXml => Split::Xml,
            Format::GeoJson if self.config.mode == Mode::Fat => Split::Fat,
            _ => Split::Marker,
        }
    }

    /// [`Engine::single_pass`] restricted to the byte range
    /// `[start, end)` and observing an optional [`CancelToken`] — the
    /// batch scan primitive: one complete region through the region
    /// kernel ([`RegionScan::region`]) in [`Engine::block_count`]
    /// blocks. The token is observed between blocks (a tripped token
    /// skips every not-yet-started block and the scan returns
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`]). Blocks
    /// carry **absolute** offsets, so features keep their global
    /// identity (offset/len) and results over ranges cut at feature
    /// starts compose bit-identically with one pass over the whole
    /// file. OSM XML relations need the global node table, so an XML
    /// range must be the whole document ([`ShardSet::build`] cuts XML
    /// into one shard).
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
        let mut scan = RegionScan::new(self, dataset.format(), filter.clone(), proto, start);
        scan.region(self, input, start..end, self.block_count(), true, token)?;
        scan.finish(input)
    }

    /// Collects the node, way and relation tables of the XML `blocks`
    /// on the pool, then assembles the features once.
    fn collect_xml(
        &self,
        input: &[u8],
        blocks: &[Block],
        filter: &MetadataFilter,
        token: Option<&CancelToken>,
    ) -> Result<(Vec<RawFeature>, Timings, FoldStats)> {
        use atgis_formats::osmxml;
        let (table, mut t, fold) = run_blocks_on(
            &self.pool,
            blocks,
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
        t.merge += started.elapsed();
        Ok((features, t, fold))
    }

    /// Parses the dataset once into an offset→geometry table: XML
    /// joins re-parse through it, since a relation's geometry needs
    /// the node table. The parse is the scan's (§4.4): one
    /// block-parallel collection pass, then assembly.
    pub(crate) fn xml_geometry_table(
        &self,
        dataset: &Dataset,
        token: Option<&CancelToken>,
    ) -> Result<HashMap<u64, Geometry>> {
        let input = dataset.bytes();
        let marker = Format::OsmXml.record_marker().bytes;
        let blocks = marker_blocks(input, marker, self.block_count());
        let (features, _, _) = self.collect_xml(input, &blocks, &MetadataFilter::All, token)?;
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
        Format::GeoJson => Box::new(move |offset, _len, scratch| {
            atgis_formats::geojson::fast::parse_geometry_at(input, offset as usize, scratch)
        }),
        Format::Wkt => Box::new(move |offset, len, _scratch| {
            let end = if len == u32::MAX {
                wkt::row_end(input, offset as usize)
            } else {
                offset as usize + len as usize
            };
            wkt::parse_row(input, offset as usize, end, &MetadataFilter::All)?
                .map(|f| f.geometry)
                .ok_or_else(|| ParseError::syntax(offset, "no row at offset"))
        }),
        Format::OsmXml => {
            let table = xml_table.expect("XML joins require the geometry table");
            Box::new(move |offset, _len, _scratch| {
                table
                    .get(&offset)
                    .cloned()
                    .ok_or_else(|| ParseError::syntax(offset, "unknown XML object offset"))
            })
        }
    }
}

/// How a scan cuts its input into blocks, picked once per scan from
/// the format and [`Mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Split {
    /// Blocks start at record markers and parse on their own: WKT, and
    /// PAT GeoJSON.
    Marker,
    /// Blocks start anywhere and parse from the lexer state phase 1
    /// resolves for them: FAT GeoJSON.
    Fat,
    /// Blocks collect OSM XML's node, way and relation tables, which
    /// assemble once per region, so a region is a whole document.
    Xml,
}

/// A region's folded blocks: the aggregate itself, or a FAT parse
/// fragment whose edge features may still need later bytes.
enum Frag<A: QueryAggregate> {
    Agg(A),
    Fat(FatGeoJsonFrag<A>),
}

impl<A: QueryAggregate> Frag<A> {
    /// Merges two adjacent fragments.
    fn merge(self, other: Self, cx: &fat::Ctx<'_>) -> Result<Self> {
        Ok(match (self, other) {
            (Frag::Agg(a), Frag::Agg(b)) => Frag::Agg(a.combine(b)),
            (Frag::Fat(a), Frag::Fat(b)) => Frag::Fat(a.merge(b, cx).map_err(Error::Parse)?),
            _ => unreachable!("one split per scan"),
        })
    }
}

/// One scan, region by region: a buffered scan is one complete region,
/// a streamed scan one region per dispatch, and both run every region
/// through [`RegionScan::region`].
pub(crate) struct RegionScan<A: QueryAggregate> {
    pub(crate) format: Format,
    pub(crate) split: Split,
    filter: MetadataFilter,
    proto: A,
    /// FAT: the feature depth, once the first feature start is seen.
    depth: Option<i32>,
    /// FAT: where the search for the first feature start resumes.
    search: (usize, fat::Entry),
    /// FAT: the lexer state where the next region starts.
    entry: fat::Entry,
    /// The fold of every region scanned so far.
    folded: Option<Frag<A>>,
    /// Phase timings, summed over the regions.
    pub(crate) timings: Timings,
    /// Blocks dispatched.
    pub(crate) blocks: u64,
    /// Pairwise fragment merges, within and across regions.
    pub(crate) merges: u64,
    /// Most fragments alive at once, counting the fold carried from
    /// earlier regions.
    pub(crate) peak_fragments: u64,
}

impl<A: QueryAggregate> RegionScan<A> {
    /// A scan of `format` whose first region starts at `start`.
    pub(crate) fn new(
        engine: &Engine,
        format: Format,
        filter: MetadataFilter,
        proto: A,
        start: usize,
    ) -> Self {
        RegionScan {
            format,
            split: engine.split(format),
            filter,
            proto,
            depth: None,
            search: (start, fat::Entry::START),
            entry: fat::Entry::START,
            folded: None,
            timings: Timings::default(),
            blocks: 0,
            merges: 0,
            peak_fragments: 0,
        }
    }

    /// FAT: the feature depth — the depth of the first feature start —
    /// searching `input[..until)` from where the last call stopped.
    pub(crate) fn feature_depth(
        &mut self,
        input: &[u8],
        until: usize,
        complete: bool,
    ) -> Option<i32> {
        if self.depth.is_none() {
            let (at, entry) = self.search;
            match fat::find_sync(input, at, entry, until, None, complete) {
                fat::Lexed::Sync { depth, .. } => self.depth = Some(depth),
                fat::Lexed::Stopped { at, entry } => self.search = (at, entry),
            }
        }
        self.depth
    }

    /// The region kernel: cuts `input[range]` into about `pieces`
    /// blocks, runs them on the engine's pool and folds the region
    /// into the scan. `input` is every byte published so far, and
    /// `complete` says whether it is the whole document. FAT runs
    /// phase 1 first, chained from the state the previous region
    /// ended in. Returns `false`, scanning nothing, while a FAT scan
    /// has not seen its first feature start: the caller offers the
    /// region again with more bytes.
    pub(crate) fn region(
        &mut self,
        engine: &Engine,
        input: &[u8],
        range: std::ops::Range<usize>,
        pieces: usize,
        complete: bool,
        token: Option<&CancelToken>,
    ) -> Result<bool> {
        debug_assert!(self.split != Split::Xml || (range.start == 0 && complete));
        let started = Instant::now();
        let depth = match self.split {
            Split::Fat => match self.feature_depth(input, range.end, complete) {
                Some(depth) => depth,
                None => {
                    self.timings.split += started.elapsed();
                    return Ok(false);
                }
            },
            _ => 0,
        };
        let slice = &input[range.clone()];
        let cut = match self.split {
            Split::Fat => fixed_blocks(slice.len(), pieces),
            _ => marker_blocks(slice, self.format.record_marker().bytes, pieces),
        };
        let blocks: Vec<Block> = cut
            .into_iter()
            .filter(|b| !b.is_empty())
            .enumerate()
            .map(|(index, b)| Block {
                index,
                start: range.start + b.start,
                end: range.start + b.end,
            })
            .collect();
        let entries = if self.split == Split::Fat {
            let maps = run_indexed_on(engine.pool(), blocks.len(), engine.threads(), token, |i| {
                fat::StateMap::of(blocks[i].slice(input))
            })?;
            let entries = fat::entries(&maps, self.entry);
            self.entry = entries[blocks.len()];
            entries
        } else {
            Vec::new()
        };
        self.timings.split += started.elapsed();

        let cx = fat::Ctx {
            input,
            depth,
            filter: &self.filter,
            complete,
        };
        let (split, format, proto) = (self.split, self.format, &self.proto);
        let (frag, mut t, fold) = if split == Split::Xml {
            let (features, mut t, fold) = engine.collect_xml(input, &blocks, cx.filter, token)?;
            let started = Instant::now();
            let mut agg = proto.clone();
            for f in &features {
                agg.absorb(f);
            }
            t.merge += started.elapsed();
            (Some(Frag::Agg(agg)), t, fold)
        } else {
            let (frag, t, fold) = run_blocks_on(
                engine.pool(),
                &blocks,
                engine.threads(),
                token,
                |b| match split {
                    Split::Fat => Ok(Frag::Fat(FatGeoJsonFrag::process(
                        &cx,
                        b,
                        entries[b.index],
                        proto,
                    ))),
                    _ => {
                        let mut agg = proto.clone();
                        for f in &parse_marker_block(input, format, b, cx.filter)? {
                            agg.absorb(f);
                        }
                        Ok(Frag::Agg(agg))
                    }
                },
                |a, b| a.merge(b, &cx),
            );
            (frag?, t, fold)
        };
        self.blocks += blocks.len() as u64;
        self.merges += fold.merges;
        let carried = u64::from(self.folded.is_some());
        self.peak_fragments = self.peak_fragments.max(fold.peak_fragments + carried);
        let started = Instant::now();
        self.folded = match (self.folded.take(), frag) {
            (Some(a), Some(b)) => {
                self.merges += 1;
                Some(a.merge(b, &cx)?)
            }
            (a, b) => a.or(b),
        };
        t.merge += started.elapsed();
        self.timings.process += t.process;
        self.timings.merge += t.merge;
        Ok(true)
    }

    /// Finishes the scan against the complete `input`: the aggregate
    /// and the phase timings of every region.
    pub(crate) fn finish(self, input: &[u8]) -> Result<(A, Timings)> {
        let started = Instant::now();
        let agg = match self.folded {
            None => self.proto,
            Some(Frag::Agg(agg)) => agg,
            Some(Frag::Fat(f)) => {
                let cx = fat::Ctx {
                    input,
                    depth: self.depth.expect("FAT fragments follow the first feature"),
                    filter: &self.filter,
                    complete: true,
                };
                f.finalize(&cx).map_err(Error::Parse)?
            }
        };
        let mut timings = self.timings;
        timings.merge += started.elapsed();
        Ok((agg, timings))
    }
}

/// Parses the records that start in a marker-aligned block of a
/// GeoJSON or WKT input (OSM XML has no block-local parse).
fn parse_marker_block(
    input: &[u8],
    format: Format,
    b: Block,
    filter: &MetadataFilter,
) -> std::result::Result<Vec<RawFeature>, ParseError> {
    let mut features = Vec::new();
    match format {
        Format::GeoJson => {
            atgis_formats::geojson::fast::parse_block(input, b.start, b.end, filter, &mut features)?
        }
        Format::Wkt => wkt::parse_rows(input, b.start, b.end, filter, &mut features)?,
        Format::OsmXml => unreachable!("XML relations need the global node table"),
    }
    Ok(features)
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
