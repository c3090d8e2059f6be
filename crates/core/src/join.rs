//! The PBSM join pipeline (§4.5, Fig. 8).
//!
//! The second pipeline of a join query consumes the spatial partitions
//! produced by the first pass and emits joined pairs:
//!
//! 1. **MBR COMPARE** — per partition, find all intersecting
//!    left/right MBR pairs; a cost-based choice picks a sort + sweep
//!    or, for badly asymmetric sides or dense partitions, an
//!    STR-bulk-loaded R-tree over the smaller side probed with the
//!    larger (see `use_rtree`);
//! 2. **SORT** — buffer candidates up to a threshold, then order them
//!    by the input-file offset of the *larger* side so that objects
//!    needing re-parsing are processed adjacently and stay in memory
//!    only briefly;
//! 3. **PARSER/BUFFER** — re-parse geometries on demand from their
//!    offsets; a hash map caches the non-adjacent stream and is
//!    cleared after each sorted batch;
//! 4. **REFINE** — the exact geometry intersection test;
//! 5. duplicate elimination — objects replicated into several
//!    partitions can match repeatedly; pairs are sorted by offsets and
//!    deduplicated before the result returns (§4.5).

use crate::partition::{PartEntry, PartitionMap};
use crate::pool::recover;
use crate::result::JoinPair;
use crate::stats::JoinDecisions;
use atgis_formats::geojson::fast::Scratch;
use atgis_formats::ParseError;
use atgis_geometry::relate::intersects;
use atgis_geometry::{measures, DistanceModel, Geometry};
use atgis_rtree::RTree;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A sharded offset→geometry memo shared by every partition of one
/// join execution — and, in batch execution, by every *query* of one
/// batch over the same dataset: an object replicated into many
/// partitions (the adaptive map's hot-cell sub-slots, or plain cell
/// straddling) or probed by many queries is re-parsed once instead of
/// once per partition per query. It holds each geometry behind an
/// [`Arc`], so a hit costs a reference count, not a copy. Shards bound
/// lock contention; each shard clears itself at a capacity bound,
/// keeping the §4.5 bounded-memory contract of the PARSER/BUFFER
/// stage.
pub struct ReparseCache {
    shards: Vec<Mutex<HashMap<u64, Arc<Geometry>>>>,
    per_shard_cap: usize,
}

impl ReparseCache {
    /// Creates a cache sized for `sort_batch`-candidate batches.
    pub fn new(sort_batch: usize) -> Self {
        let n = 16usize;
        ReparseCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap: (sort_batch / n).max(64),
        }
    }

    /// The object at `offset`, re-parsed through `reparse` (with the
    /// caller's `scratch`) unless an earlier call holds it.
    pub(crate) fn get_or_parse(
        &self,
        offset: u64,
        len: u32,
        reparse: &Reparser<'_>,
        scratch: &mut Scratch,
    ) -> Result<Arc<Geometry>, ParseError> {
        let shard = &self.shards[(offset as usize) & (self.shards.len() - 1)];
        if let Some(g) = recover(shard.lock()).get(&offset) {
            return Ok(Arc::clone(g));
        }
        // Parse outside the lock. A racing duplicate parse is rare and
        // harmless: the first geometry stored is the one every caller
        // gets.
        let g = Arc::new(reparse(offset, len, scratch)?);
        let mut m = recover(shard.lock());
        if m.len() >= self.per_shard_cap {
            m.clear();
        }
        Ok(Arc::clone(m.entry(offset).or_insert(g)))
    }
}

/// Re-parses one object from its offset span (format-specific; the
/// engine provides it, for OSM XML it captures the node table). The
/// GeoJSON reparser keeps its coordinate buffer in the caller's
/// [`Scratch`], one per join task; the others leave it alone.
pub type Reparser<'a> = dyn Fn(u64, u32, &mut Scratch) -> Result<Geometry, ParseError> + Sync + 'a;

/// The per-query semantics of one join over the shared, side-agnostic
/// partition index: the side rule (`id < threshold` is left, decided at
/// join time) plus the combined query's perimeter bounds, enforced at
/// the refinement stage where the parsed geometry is in hand anyway.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinSpec {
    /// Objects with `id < threshold` are the left side.
    pub(crate) threshold: u64,
    /// Keep left objects only when their perimeter exceeds this.
    pub(crate) min_perimeter_left: Option<f64>,
    /// Keep right objects only when their perimeter is below this.
    pub(crate) max_perimeter_right: Option<f64>,
}

impl JoinSpec {
    /// A plain join: sides from the id threshold, no perimeter bounds.
    pub(crate) fn threshold(t: u64) -> Self {
        JoinSpec {
            threshold: t,
            min_perimeter_left: None,
            max_perimeter_right: None,
        }
    }

    /// Adds the combined query's perimeter bounds.
    pub(crate) fn with_perimeter_bounds(
        mut self,
        min_left: Option<f64>,
        max_right: Option<f64>,
    ) -> Self {
        self.min_perimeter_left = min_left;
        self.max_perimeter_right = max_right;
        self
    }

    fn filters_perimeter(&self) -> bool {
        self.min_perimeter_left.is_some() || self.max_perimeter_right.is_some()
    }
}

/// Join pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinOptions {
    /// Worker threads for the partition-parallel phase. `0` (the
    /// default) inherits the machine parallelism
    /// (`std::thread::available_parallelism`), matching what an
    /// engine-owned pool would provide — joins never silently run
    /// single-threaded.
    pub threads: usize,
    /// SORT-stage batch size: candidates per sorted block. Smaller
    /// values bound memory at the cost of repeated parsing (§4.5:
    /// "By adjusting the threshold in SORT, the number of stored
    /// objects can be reduced").
    pub sort_batch: usize,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            threads: 0,
            sort_batch: 1 << 16,
        }
    }
}

/// The R-tree probe needs at least this many objects on the smaller
/// side (the one bulk loaded) for the build to pay.
const RTREE_MIN_SMALL_SIDE: usize = 64;

/// Asymmetry rule: the R-tree probe is chosen when the larger side is
/// at least this many times the smaller.
const RTREE_SIDE_RATIO: usize = 8;

/// Density rule, in objects per square degree of the partition's
/// owned region: partitions at least this dense prefer the R-tree even
/// when the sides are symmetric.
const RTREE_DENSITY: f64 = 512.0;

/// The MBR COMPARE algorithm one partition ran, with the cost-model
/// input that picked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeChoice {
    /// Sort + sweep.
    Sweep,
    /// R-tree probe chosen by the side-asymmetry rule.
    RTreeAsymmetry,
    /// R-tree probe chosen by the partition-density rule alone.
    RTreeDensity,
}

/// One partition's result: its pairs, which compare algorithm ran
/// (`None` when the partition was trivially empty on one side), and
/// the partition's observed density (objects per square degree; 0
/// when unknown).
pub(crate) type SlotResult = Result<(Vec<JoinPair>, Option<ProbeChoice>, f64), ParseError>;

/// Everything one join execution produced.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// Deduplicated joined pairs.
    pub pairs: Vec<JoinPair>,
    /// Time spent on the final duplicate elimination.
    pub dedup: Duration,
    /// Partition-map shape and per-partition algorithm decisions.
    pub decisions: JoinDecisions,
}

/// Folds per-partition results into one query's deduplicated outcome
/// (the batch layer runs the slots as a flattened query × slot
/// fan-out).
pub(crate) fn fold_slot_results(
    map: &PartitionMap,
    per_slot: impl Iterator<Item = SlotResult>,
) -> Result<JoinOutcome, ParseError> {
    let mut pairs = Vec::new();
    let mut decisions = JoinDecisions::from_map(map.stats());
    for r in per_slot {
        let (p, probed, density) = r?;
        pairs.extend(p);
        if density > decisions.max_partition_density {
            decisions.max_partition_density = density;
        }
        match probed {
            Some(ProbeChoice::Sweep) => decisions.sweep_partitions += 1,
            Some(ProbeChoice::RTreeAsymmetry) => {
                decisions.rtree_partitions += 1;
                decisions.rtree_by_asymmetry += 1;
            }
            Some(ProbeChoice::RTreeDensity) => {
                decisions.rtree_partitions += 1;
                decisions.rtree_by_density += 1;
            }
            None => {}
        }
    }
    // Duplicate elimination (sequential step, timed separately).
    let started = Instant::now();
    pairs.sort_unstable();
    pairs.dedup();
    let dedup = started.elapsed();
    Ok(JoinOutcome {
        pairs,
        dedup,
        decisions,
    })
}

/// Joins one partition: MBR compare → sort → re-parse → refine.
/// Returns the pairs plus which compare algorithm ran (`None` when the
/// partition was trivially empty on one side) and the partition's
/// density.
pub(crate) fn join_partition(
    map: &PartitionMap,
    slot: usize,
    spec: &JoinSpec,
    reparse: &Reparser<'_>,
    cache: &ReparseCache,
    options: &JoinOptions,
) -> SlotResult {
    let sort_batch = options.sort_batch;
    let mut lefts: Vec<PartEntry> = Vec::new();
    let mut rights: Vec<PartEntry> = Vec::new();
    for e in map.slot_entries(slot) {
        if e.id < spec.threshold {
            lefts.push(*e);
        } else {
            rights.push(*e);
        }
    }
    // Partition density: total entries over the owned region's area
    // (0 for a degenerate region).
    let area = map.slot_area(slot);
    let density = if area > 0.0 {
        (lefts.len() + rights.len()) as f64 / area
    } else {
        0.0
    };
    if lefts.is_empty() || rights.is_empty() {
        return Ok((Vec::new(), None, density));
    }

    // MBR COMPARE: cost-based sweep vs R-tree probe.
    let choice = use_rtree(lefts.len(), rights.len(), density);
    let mut candidates = if choice != ProbeChoice::Sweep {
        mbr_compare_rtree(&lefts, &rights)
    } else {
        mbr_compare(&lefts, &rights)
    };
    // Reference-point duplicate filter: a pair replicated into several
    // partitions is kept only by the slot owning the bottom-left
    // corner of the MBR intersection, so re-parsing and refinement run
    // once per pair instead of once per copy.
    candidates.retain(|(l, r)| {
        map.owns_point(
            slot,
            l.mbr.min_x.max(r.mbr.min_x),
            l.mbr.min_y.max(r.mbr.min_y),
        )
    });
    if candidates.is_empty() {
        return Ok((Vec::new(), Some(choice), density));
    }

    // The larger side becomes the adjacent (sequentially re-parsed)
    // stream; the smaller is cached in the hash map.
    let adjacent_left = lefts.len() >= rights.len();

    // Per-object perimeter memo for the combined query's refine-stage
    // bounds (only allocated when the spec carries filters).
    let mut perimeters: HashMap<u64, f64> = HashMap::new();
    let mut perimeter_of = |offset: u64, g: &Geometry| -> f64 {
        *perimeters
            .entry(offset)
            .or_insert_with(|| measures::perimeter(g, DistanceModel::Spherical))
    };

    let mut scratch = Scratch::default();
    let mut out = Vec::new();
    let mut start = 0;
    while start < candidates.len() {
        let end = (start + sort_batch.max(1)).min(candidates.len());
        let batch = &mut candidates[start..end];
        // SORT by the adjacent side's offset.
        if adjacent_left {
            batch.sort_unstable_by_key(|(l, _)| l.offset);
        } else {
            batch.sort_unstable_by_key(|(_, r)| r.offset);
        }
        // PARSER/BUFFER + REFINE. Parses go through the join-wide
        // shared cache so replicated objects parse once per join, not
        // once per partition.
        let mut adj_geom: Option<(u64, Arc<Geometry>)> = None;
        for (l, r) in batch.iter() {
            let (adj, other) = if adjacent_left { (l, r) } else { (r, l) };
            // The adjacent stream is offset-sorted: reuse the last
            // parse when consecutive candidates share an object.
            let adj_g = match &adj_geom {
                Some((off, g)) if *off == adj.offset => Arc::clone(g),
                _ => {
                    let g = cache.get_or_parse(adj.offset, adj.len, reparse, &mut scratch)?;
                    adj_geom = Some((adj.offset, Arc::clone(&g)));
                    g
                }
            };
            let other_g = cache.get_or_parse(other.offset, other.len, reparse, &mut scratch)?;
            let (lg, rg) = if adjacent_left {
                (&adj_g, &other_g)
            } else {
                (&other_g, &adj_g)
            };
            // The combined query's perimeter bounds: the predicates
            // are per-object, so rejecting pairs whose member fails is
            // identical to never partitioning it.
            if spec.filters_perimeter() {
                if let Some(min) = spec.min_perimeter_left {
                    if perimeter_of(l.offset, lg) <= min {
                        continue;
                    }
                }
                if let Some(max) = spec.max_perimeter_right {
                    if perimeter_of(r.offset, rg) >= max {
                        continue;
                    }
                }
            }
            if intersects(lg, rg) {
                out.push(JoinPair {
                    left_id: l.id,
                    right_id: r.id,
                    left_offset: l.offset,
                    right_offset: r.offset,
                });
            }
        }
        // "Once a block is processed, the hash map is cleared."
        start = end;
    }
    Ok((out, Some(choice), density))
}

/// Picks the per-partition MBR COMPARE algorithm from side asymmetry
/// *and* partition density (objects per square degree).
///
/// The sort + sweep costs `O(L log L + R log R)` to sort plus a window
/// scan that degrades toward `O(L·R)` when the two sides' x-extents
/// overlap heavily. Bulk-loading the smaller side into an R-tree costs
/// `O(S log S)` once and `O(log S + k)` per probe, which wins when the
/// sides are badly asymmetric — the shape skewed inputs produce after
/// hot-cell splitting — or when the partition is dense.
fn use_rtree(lefts: usize, rights: usize, density: f64) -> ProbeChoice {
    let small = lefts.min(rights);
    let large = lefts.max(rights);
    // The build must amortise: the small side (the one bulk loaded)
    // has to be non-trivial either way.
    if small < RTREE_MIN_SMALL_SIDE {
        return ProbeChoice::Sweep;
    }
    // Asymmetry rule: per-probe log cost beats the sweep's window
    // scans when one side dwarfs the other.
    if large >= small.saturating_mul(RTREE_SIDE_RATIO) {
        return ProbeChoice::RTreeAsymmetry;
    }
    // Density rule: dense partitions pack MBRs so tightly that
    // x-intervals overlap pervasively and the sweep's window scan
    // degrades toward O(L·R) even for symmetric sides; the R-tree
    // keeps discriminating on both axes. An unknown density (0: the
    // map has no grid geometry) never triggers it.
    if density >= RTREE_DENSITY {
        return ProbeChoice::RTreeDensity;
    }
    ProbeChoice::Sweep
}

/// Finds all MBR-intersecting (left, right) pairs by STR-bulk-loading
/// the smaller side into an R-tree and probing it with every entry of
/// the larger side.
fn mbr_compare_rtree(lefts: &[PartEntry], rights: &[PartEntry]) -> Vec<(PartEntry, PartEntry)> {
    let small_is_left = lefts.len() <= rights.len();
    let (small, large) = if small_is_left {
        (lefts, rights)
    } else {
        (rights, lefts)
    };
    let tree = RTree::bulk_load(
        small
            .iter()
            .enumerate()
            .map(|(i, e)| (e.mbr, i as u64))
            .collect(),
    );
    let mut out = Vec::new();
    let mut hits = Vec::new();
    for probe in large {
        hits.clear();
        tree.query_into(&probe.mbr, &mut hits);
        for &h in &hits {
            let s = small[h as usize];
            out.push(if small_is_left {
                (s, *probe)
            } else {
                (*probe, s)
            });
        }
    }
    out
}

/// Finds all MBR-intersecting (left, right) pairs with a
/// sort-and-sweep over min_x.
fn mbr_compare(lefts: &[PartEntry], rights: &[PartEntry]) -> Vec<(PartEntry, PartEntry)> {
    let mut ls: Vec<&PartEntry> = lefts.iter().collect();
    let mut rs: Vec<&PartEntry> = rights.iter().collect();
    let key = |e: &&PartEntry| e.mbr.min_x;
    ls.sort_by(|a, b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rs.sort_by(|a, b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut out = Vec::new();
    let mut ri = 0usize;
    for l in &ls {
        // Advance past rights that end before this left begins — they
        // can never match this or any later left.
        while ri < rs.len() && rs[ri].mbr.max_x < l.mbr.min_x {
            // Only safe to drop when the right also ends before every
            // later left's start; since lefts are sorted by min_x,
            // l.mbr.min_x is non-decreasing, so it is safe.
            ri += 1;
        }
        for r in &rs[ri..] {
            if r.mbr.min_x > l.mbr.max_x {
                break;
            }
            if l.mbr.intersects(&r.mbr) {
                out.push((**l, **r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{AdaptiveConfig, GridSpec};
    use atgis_geometry::{Mbr, Point, Polygon};

    fn entry(id: u64, x: f64, y: f64, size: f64) -> PartEntry {
        PartEntry {
            id,
            offset: id,
            len: 0,
            mbr: Mbr::new(x, y, x + size, y + size),
        }
    }

    /// Reparser that reconstructs a square from the entry's offset (we
    /// encode position in the id for tests).
    fn square_reparser(
        squares: HashMap<u64, Polygon>,
    ) -> impl Fn(u64, u32, &mut Scratch) -> Result<Geometry, ParseError> + Sync {
        move |offset, _len, _scratch: &mut Scratch| {
            Ok(Geometry::Polygon(
                squares.get(&offset).expect("known offset").clone(),
            ))
        }
    }

    fn square_at(x: f64, y: f64, size: f64) -> Polygon {
        Polygon::from_exterior(vec![
            Point::new(x, y),
            Point::new(x + size, y),
            Point::new(x + size, y + size),
            Point::new(x, y + size),
        ])
    }

    /// The fixtures put ids below this on the left side.
    const LEFT_BELOW: u64 = 10;

    /// One query's whole join stage, as the batch layer runs it: every
    /// slot through [`join_partition`] on the shared pool, folded by
    /// [`fold_slot_results`].
    fn join_all(
        map: &PartitionMap,
        spec: &JoinSpec,
        reparse: &Reparser<'_>,
        options: JoinOptions,
    ) -> JoinOutcome {
        let cache = ReparseCache::new(options.sort_batch);
        let per_slot = crate::executor::run_indexed_on(
            crate::pool::WorkerPool::global(),
            map.num_slots(),
            options.threads,
            None,
            |slot| join_partition(map, slot, spec, reparse, &cache, &options),
        )
        .unwrap();
        fold_slot_results(map, per_slot.into_iter()).unwrap()
    }

    /// [`join_all`] with a plain threshold spec.
    fn join_pairs(
        map: &PartitionMap,
        reparse: &Reparser<'_>,
        options: JoinOptions,
    ) -> Vec<JoinPair> {
        join_all(map, &JoinSpec::threshold(LEFT_BELOW), reparse, options).pairs
    }

    /// The map with splitting disabled: one slot per non-empty cell.
    fn uniform(grid: &GridSpec, scattered: Vec<(usize, PartEntry)>) -> PartitionMap {
        PartitionMap::build(grid, scattered, &AdaptiveConfig::disabled())
    }

    /// Scatters `poly`'s entry (offset = id) into every cell of `grid`
    /// it touches.
    fn scatter(grid: &GridSpec, id: u64, poly: &Polygon, into: &mut Vec<(usize, PartEntry)>) {
        let e = PartEntry {
            id,
            offset: id,
            len: 0,
            mbr: poly.mbr(),
        };
        into.extend(grid.cells_for(&e.mbr).map(|cell| (cell, e)));
    }

    #[test]
    fn mbr_compare_finds_all_intersections() {
        let lefts = vec![entry(1, 0.0, 0.0, 2.0), entry(2, 5.0, 5.0, 1.0)];
        let rights = vec![
            entry(10, 1.0, 1.0, 2.0),
            entry(11, 9.0, 9.0, 1.0),
            entry(12, 5.5, 5.5, 0.2),
        ];
        let mut pairs: Vec<(u64, u64)> = mbr_compare(&lefts, &rights)
            .iter()
            .map(|(l, r)| (l.id, r.id))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 12)]);
    }

    #[test]
    fn mbr_compare_brute_force_agreement() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mk = |id: u64, rng: &mut rand::rngs::StdRng| {
            entry(
                id,
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(0.1..3.0),
            )
        };
        let lefts: Vec<PartEntry> = (0..40).map(|i| mk(i, &mut rng)).collect();
        let rights: Vec<PartEntry> = (100..160).map(|i| mk(i, &mut rng)).collect();
        let mut got: Vec<(u64, u64)> = mbr_compare(&lefts, &rights)
            .iter()
            .map(|(l, r)| (l.id, r.id))
            .collect();
        got.sort_unstable();
        let mut want = Vec::new();
        for l in &lefts {
            for r in &rights {
                if l.mbr.intersects(&r.mbr) {
                    want.push((l.id, r.id));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    fn join_fixture() -> (PartitionMap, HashMap<u64, Polygon>) {
        // Grid of 2 cells; squares 1 and 2 on the left side, 10-12 on
        // the right. Square 1 overlaps 10; square 2 overlaps nothing;
        // square 1 also straddles both cells to create duplicates.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 2.0);
        let mut scattered = Vec::new();
        let mut squares = HashMap::new();
        for (id, x, y, size) in [
            (1, 1.5, 0.5, 1.0), // straddles cells 0 and 1
            (2, 0.1, 1.5, 0.3),
            (10, 2.0, 0.8, 1.0), // overlaps 1
            (11, 3.5, 1.5, 0.4),
            (12, 0.5, 0.1, 0.2),
        ] {
            let poly = square_at(x, y, size);
            scatter(&grid, id, &poly, &mut scattered);
            squares.insert(id, poly);
        }
        (uniform(&grid, scattered), squares)
    }

    #[test]
    fn pbsm_join_finds_pairs_and_dedups() {
        let (map, squares) = join_fixture();
        let reparse = square_reparser(squares);
        let pairs = join_pairs(&map, &reparse, JoinOptions::default());
        assert_eq!(pairs.len(), 1, "exactly one intersecting pair: {pairs:?}");
        assert_eq!((pairs[0].left_id, pairs[0].right_id), (1, 10));
    }

    #[test]
    fn small_sort_batches_do_not_change_results() {
        let (map, squares) = join_fixture();
        let reparse = square_reparser(squares);
        let base = join_pairs(&map, &reparse, JoinOptions::default());
        for sort_batch in [1, 2, 3] {
            let got = join_pairs(
                &map,
                &reparse,
                JoinOptions {
                    threads: 1,
                    sort_batch,
                },
            );
            assert_eq!(got, base, "sort_batch={sort_batch}");
        }
    }

    #[test]
    fn multithreaded_join_is_deterministic() {
        let (map, squares) = join_fixture();
        let reparse = square_reparser(squares);
        let single = join_pairs(
            &map,
            &reparse,
            JoinOptions {
                threads: 1,
                ..JoinOptions::default()
            },
        );
        let multi = join_pairs(
            &map,
            &reparse,
            JoinOptions {
                threads: 4,
                ..JoinOptions::default()
            },
        );
        assert_eq!(single, multi);
    }

    #[test]
    fn empty_sides_produce_no_pairs() {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 2.0), 1.0);
        let map = uniform(&grid, Vec::new());
        let reparse = square_reparser(HashMap::new());
        let pairs = join_pairs(&map, &reparse, JoinOptions::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn default_join_options_inherit_machine_parallelism() {
        // 0 = available_parallelism at execution time; joins must not
        // silently run single-threaded (satellite fix).
        assert_eq!(JoinOptions::default().threads, 0);
    }

    #[test]
    fn rtree_compare_agrees_with_sweep() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mk = |id: u64, rng: &mut rand::rngs::StdRng| {
            entry(
                id,
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(0.1..4.0),
            )
        };
        for (nl, nr) in [(1usize, 50usize), (80, 10), (60, 60), (200, 3)] {
            let lefts: Vec<PartEntry> = (0..nl as u64).map(|i| mk(i, &mut rng)).collect();
            let rights: Vec<PartEntry> =
                (1000..1000 + nr as u64).map(|i| mk(i, &mut rng)).collect();
            let mut sweep: Vec<(u64, u64)> = mbr_compare(&lefts, &rights)
                .iter()
                .map(|(l, r)| (l.id, r.id))
                .collect();
            let mut rtree: Vec<(u64, u64)> = mbr_compare_rtree(&lefts, &rights)
                .iter()
                .map(|(l, r)| (l.id, r.id))
                .collect();
            sweep.sort_unstable();
            rtree.sort_unstable();
            assert_eq!(sweep, rtree, "nl={nl} nr={nr}");
        }
    }

    #[test]
    fn auto_probe_requires_asymmetry_and_volume() {
        let floor = RTREE_MIN_SMALL_SIDE;
        assert_eq!(
            use_rtree(100, 100, 0.0),
            ProbeChoice::Sweep,
            "symmetric: sweep"
        );
        assert_eq!(
            use_rtree(floor - 1, 1000, 0.0),
            ProbeChoice::Sweep,
            "small side too small to pay the build"
        );
        assert_eq!(
            use_rtree(floor, floor * RTREE_SIDE_RATIO, 0.0),
            ProbeChoice::RTreeAsymmetry,
            "asymmetric and big: rtree"
        );
        assert_eq!(
            use_rtree(floor * RTREE_SIDE_RATIO - 1, floor, 0.0),
            ProbeChoice::Sweep,
            "just under the ratio, either side larger"
        );
        assert_eq!(use_rtree(64, 512, 0.0), ProbeChoice::RTreeAsymmetry);
    }

    #[test]
    fn auto_probe_factors_partition_density() {
        // Dense symmetric partitions flip to the R-tree...
        assert_eq!(
            use_rtree(200, 200, RTREE_DENSITY),
            ProbeChoice::RTreeDensity
        );
        assert_eq!(use_rtree(200, 200, 512.0), ProbeChoice::RTreeDensity);
        // ...sparse ones stay with the sweep...
        assert_eq!(use_rtree(200, 200, RTREE_DENSITY * 0.5), ProbeChoice::Sweep);
        // ...tiny partitions never pay the build regardless of density...
        assert_eq!(use_rtree(8, 8, 1e12), ProbeChoice::Sweep);
        // ...and asymmetry is attributed before density.
        assert_eq!(use_rtree(64, 64 * 8, 1e12), ProbeChoice::RTreeAsymmetry);
        // An unknown density (0: a degenerate slot region) never triggers.
        assert_eq!(use_rtree(500, 500, 0.0), ProbeChoice::Sweep);
    }

    #[test]
    fn threshold_side_rule_matches_tagged_partitioning() {
        // Sides come from the id threshold at join time: for every
        // threshold the one side-agnostic index joins exactly like a
        // brute-force pass over the squares tagged left (id below the
        // threshold) or right.
        let (map, squares) = join_fixture();
        let ids: Vec<u64> = squares.keys().copied().collect();
        let reparse = square_reparser(squares);
        for threshold in [0, 2, LEFT_BELOW, 11, 13] {
            let spec = JoinSpec::threshold(threshold);
            let got: Vec<(u64, u64)> = join_all(&map, &spec, &reparse, JoinOptions::default())
                .pairs
                .iter()
                .map(|p| (p.left_id, p.right_id))
                .collect();
            let mut want = Vec::new();
            for &l in ids.iter().filter(|&&id| id < threshold) {
                for &r in ids.iter().filter(|&&id| id >= threshold) {
                    let mut scratch = Scratch::default();
                    let mut parse = |id| reparse(id, 0, &mut scratch).unwrap();
                    if intersects(&parse(l), &parse(r)) {
                        want.push((l, r));
                    }
                }
            }
            want.sort_unstable();
            assert_eq!(got, want, "threshold {threshold}");
        }
    }

    #[test]
    fn refine_stage_perimeter_bounds_filter_pairs() {
        let (map, squares) = join_fixture();
        let reparse = square_reparser(squares);
        let options = JoinOptions {
            sort_batch: 64,
            ..JoinOptions::default()
        };
        let spec = JoinSpec::threshold(LEFT_BELOW);
        let unfiltered = join_all(&map, &spec, &reparse, options);
        assert!(!unfiltered.pairs.is_empty());
        let strict = spec.with_perimeter_bounds(Some(1e12), None);
        let filtered = join_all(&map, &strict, &reparse, options);
        assert!(
            filtered.pairs.is_empty(),
            "an impossible left bound rejects every pair"
        );
    }

    #[test]
    fn probe_strategies_agree_on_join_results() {
        // Cell 0 pits the smallest side the R-tree builds for against
        // RTREE_SIDE_RATIO times as many objects, so the asymmetry rule
        // picks the R-tree; cell 1 holds two small sides and sweeps.
        // Both arms must produce the brute-force pairs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 2.0);
        let mut scattered = Vec::new();
        let mut squares = HashMap::new();
        let threshold = 10_000;
        let few = RTREE_MIN_SMALL_SIDE as u64;
        let many = few * RTREE_SIDE_RATIO as u64;
        for (x0, first, n) in [
            (0.0, 0, few),
            (0.0, threshold, many),
            (2.1, 5_000, 12),
            (2.1, threshold + 5_000, 12),
        ] {
            for id in first..first + n {
                let poly = square_at(
                    x0 + rng.gen_range(0.0..1.5),
                    rng.gen_range(0.0..1.5),
                    rng.gen_range(0.02..0.3),
                );
                scatter(&grid, id, &poly, &mut scattered);
                squares.insert(id, poly);
            }
        }
        let mut want = Vec::new();
        for (&l, lp) in squares.iter().filter(|(&id, _)| id < threshold) {
            for (&r, rp) in squares.iter().filter(|(&id, _)| id >= threshold) {
                if intersects(
                    &Geometry::Polygon(lp.clone()),
                    &Geometry::Polygon(rp.clone()),
                ) {
                    want.push((l, r));
                }
            }
        }
        want.sort_unstable();
        assert!(!want.is_empty(), "fixture must produce pairs");
        let map = uniform(&grid, scattered);
        let reparse = square_reparser(squares);
        let out = join_all(
            &map,
            &JoinSpec::threshold(threshold),
            &reparse,
            JoinOptions::default(),
        );
        let d = out.decisions;
        assert_eq!((d.rtree_by_asymmetry, d.sweep_partitions), (1, 1), "{d:?}");
        let got: Vec<(u64, u64)> = out.pairs.iter().map(|p| (p.left_id, p.right_id)).collect();
        assert_eq!(got, want);
    }

    /// A skewed input: one hot cell packed with overlapping squares on
    /// both sides, ids below 30 on the left.
    fn skewed_fixture() -> (GridSpec, Vec<(usize, PartEntry)>, HashMap<u64, Polygon>) {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 2.0);
        let mut scattered = Vec::new();
        let mut squares = HashMap::new();
        // Even positions are the left side: ids below 30.
        for i in 0..60u64 {
            let id = if i % 2 == 0 { i / 2 } else { 30 + i / 2 };
            let x = (i % 10) as f64 * 0.18;
            let y = (i / 10) as f64 * 0.3;
            let poly = square_at(x, y, 0.25);
            scatter(&grid, id, &poly, &mut scattered);
            squares.insert(id, poly);
        }
        (grid, scattered, squares)
    }

    #[test]
    fn adaptive_map_join_agrees_with_uniform() {
        let (grid, scattered, squares) = skewed_fixture();
        let reparse = square_reparser(squares);
        let unsplit = uniform(&grid, scattered.clone());
        let adaptive = PartitionMap::build(
            &grid,
            scattered,
            &AdaptiveConfig {
                target_per_cell: 8,
                ..AdaptiveConfig::default()
            },
        );
        assert!(adaptive.stats().split_cells > 0, "{:?}", adaptive.stats());
        let spec = JoinSpec::threshold(30);
        let a = join_all(&unsplit, &spec, &reparse, JoinOptions::default());
        let b = join_all(&adaptive, &spec, &reparse, JoinOptions::default());
        assert_eq!(a.pairs, b.pairs);
        assert!(!a.pairs.is_empty(), "fixture must produce pairs");
        assert_eq!(
            b.decisions.map.split_cells,
            adaptive.stats().split_cells,
            "decisions carry the map shape"
        );
        assert!(
            b.decisions.sweep_partitions + b.decisions.rtree_partitions > 0,
            "probe tallies recorded"
        );
    }

    /// A [`square_reparser`] that counts its parses per offset in
    /// `counts`.
    fn counting_reparser(
        squares: HashMap<u64, Polygon>,
        counts: &Mutex<HashMap<u64, usize>>,
    ) -> impl Fn(u64, u32, &mut Scratch) -> Result<Geometry, ParseError> + Sync + '_ {
        let reparse = square_reparser(squares);
        move |offset, len, scratch: &mut Scratch| {
            *counts.lock().unwrap().entry(offset).or_insert(0) += 1;
            reparse(offset, len, scratch)
        }
    }

    #[test]
    fn a_join_reparses_each_distinct_object_once() {
        // The adaptive map replicates the hot cell's squares into its
        // sub-slots, so the same objects are candidates in many slots.
        let (grid, scattered, squares) = skewed_fixture();
        let map = PartitionMap::build(
            &grid,
            scattered,
            &AdaptiveConfig {
                target_per_cell: 8,
                ..AdaptiveConfig::default()
            },
        );
        assert!(map.stats().split_cells > 0);
        let counts = Mutex::new(HashMap::new());
        let reparse = counting_reparser(squares, &counts);
        let options = JoinOptions {
            threads: 1,
            ..JoinOptions::default()
        };
        let outcome = join_all(&map, &JoinSpec::threshold(30), &reparse, options);
        assert!(!outcome.pairs.is_empty());
        let counts = counts.lock().unwrap();
        for p in &outcome.pairs {
            assert!(counts.contains_key(&p.left_offset) && counts.contains_key(&p.right_offset));
        }
        assert!(
            counts.values().all(|&n| n == 1),
            "parses per offset: {counts:?}"
        );
    }

    #[test]
    fn cache_hits_share_one_geometry() {
        let (_, squares) = join_fixture();
        let counts = Mutex::new(HashMap::new());
        let reparse = counting_reparser(squares, &counts);
        let cache = ReparseCache::new(JoinOptions::default().sort_batch);
        let mut scratch = Scratch::default();
        let first = cache.get_or_parse(10, 0, &reparse, &mut scratch).unwrap();
        let second = cache.get_or_parse(10, 0, &reparse, &mut scratch).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(counts.lock().unwrap()[&10], 1);
    }
}
