//! Spatial grid partitioning (§4.4 stage 3 and §5.6).
//!
//! Partitioning terminates the first pipeline of a join: geometries
//! (their MBRs plus source offsets) are scattered into fixed-size grid
//! cells; geometries straddling cell boundaries are replicated into
//! every cell they touch (the non-disjoint partitions whose duplicate
//! results the join removes later). Partitioning runs inside the
//! associative scan: every block appends one `(cell, entry)` pair per
//! cell an entry touches to its own flat list, and block lists merge by
//! concatenation, so the merged list is in document order.
//!
//! # One flat index
//!
//! [`PartitionMap::build`] seals that list once: a stable sort by cell
//! groups each cell's entries, still in document order, and every
//! non-empty cell becomes a *slot* — a contiguous range of one entry
//! array plus the *ownership chain* naming the region the slot owns,
//! starting with `(grid, cell)`. Empty cells cost nothing: the index
//! scales with the entries, not with the grid.
//!
//! # Skew-adaptive splitting
//!
//! A uniform grid serialises skewed joins: when the data clusters (the
//! Fig. 14 experiment), a handful of hot cells hold most of the
//! entries and their per-partition MBR-compare work — superlinear in
//! the cell population — dominates the whole join while every other
//! worker idles. The builder therefore splits every cell holding more
//! than a target number of entries into its own sub-grid whose
//! resolution is derived from the cell's load (`⌈√(load/target)⌉`
//! sub-cells per axis, capped by [`AdaptiveConfig::max_subdiv`]),
//! recursively while sub-cells stay hot. Entries of a split cell are
//! scattered into every sub-cell their MBR touches — the same
//! replicate-and-deduplicate contract as the base grid — and each
//! non-empty sub-cell becomes a slot of the same entry array whose
//! chain is one link longer per level.
//!
//! Correctness of the refinement relies only on monotone index
//! clamping: two MBRs that intersect map to overlapping sub-cell index
//! rectangles under *any* sub-grid extent, so every candidate pair of
//! a hot cell survives into at least one of its sub-slots.
//!
//! A split is rolled back when it replicates entries beyond
//! [`AdaptiveConfig::max_replication`] — the pathological case of a
//! cell whose entries all mutually overlap, where refinement would
//! multiply work instead of dividing it. [`PartitionMapStats`] records
//! what the builder decided so `stats.rs` can surface split decisions
//! per query.

use atgis_formats::RawFeature;
use atgis_geometry::Mbr;
use std::ops::Range;

/// One partition entry: everything the join pipeline needs without
/// re-parsing (§4.5: "The partition has two lists of MBRs and the
/// offset in the original data of the corresponding object").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartEntry {
    /// Source object id.
    pub id: u64,
    /// Byte offset for re-parsing.
    pub offset: u64,
    /// Byte length for re-parsing.
    pub len: u32,
    /// The object's bounding box.
    pub mbr: Mbr,
}

impl PartEntry {
    /// Builds an entry from a parsed feature.
    pub fn from_feature(f: &RawFeature) -> Self {
        PartEntry {
            id: f.id,
            offset: f.offset,
            len: f.len,
            mbr: f.geometry.mbr(),
        }
    }
}

/// The partition grid: cell size in degrees over a fixed extent
/// (§5.6 sweeps cell sizes 0.25°–4°).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Covered extent.
    pub extent: Mbr,
    /// Cell edge length in degrees.
    pub cell_deg: f64,
}

impl GridSpec {
    /// Creates a grid covering `extent` with `cell_deg` cells.
    pub fn new(extent: Mbr, cell_deg: f64) -> Self {
        assert!(cell_deg > 0.0, "cell size must be positive");
        GridSpec { extent, cell_deg }
    }

    /// Grid dimensions (columns, rows).
    pub fn dims(&self) -> (usize, usize) {
        let nx = (self.extent.width() / self.cell_deg).ceil().max(1.0) as usize;
        let ny = (self.extent.height() / self.cell_deg).ceil().max(1.0) as usize;
        (nx, ny)
    }

    /// Total cell count.
    pub fn num_cells(&self) -> usize {
        let (nx, ny) = self.dims();
        nx * ny
    }

    /// The column and row of the cell holding `(x, y)`, clamped to the
    /// grid: points left of or below the extent map to the first
    /// column or row, points right of or above it to the last.
    fn index_of(&self, (nx, ny): (usize, usize), x: f64, y: f64) -> (usize, usize) {
        let clamp = |v: f64, n: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(n - 1)
            }
        };
        (
            clamp((x - self.extent.min_x) / self.cell_deg, nx),
            clamp((y - self.extent.min_y) / self.cell_deg, ny),
        )
    }

    /// Indices of every cell a box overlaps (clamped to the extent),
    /// row by row; none for an empty box.
    pub fn cells_for(&self, mbr: &Mbr) -> impl Iterator<Item = usize> {
        let dims = self.dims();
        let (cols, rows) = if mbr.is_empty() {
            (0..0, 0..0)
        } else {
            let (x0, y0) = self.index_of(dims, mbr.min_x, mbr.min_y);
            let (x1, y1) = self.index_of(dims, mbr.max_x, mbr.max_y);
            (x0..x1 + 1, y0..y1 + 1)
        };
        rows.flat_map(move |y| cols.clone().map(move |x| y * dims.0 + x))
    }

    /// The cell owning a point, using the same clamp-to-extent mapping
    /// as [`GridSpec::cells_for`] — so the cell of any point inside an
    /// MBR is one of the cells the MBR replicates into.
    pub fn cell_of_point(&self, x: f64, y: f64) -> usize {
        let dims = self.dims();
        let (cx, cy) = self.index_of(dims, x, y);
        cy * dims.0 + cx
    }

    /// The rectangle covered by a cell (edge cells are clipped to the
    /// extent).
    pub fn cell_rect(&self, cell: usize) -> Mbr {
        let (nx, _) = self.dims();
        let x = cell % nx;
        let y = cell / nx;
        let min_x = self.extent.min_x + x as f64 * self.cell_deg;
        let min_y = self.extent.min_y + y as f64 * self.cell_deg;
        Mbr::new(
            min_x,
            min_y,
            (min_x + self.cell_deg).min(self.extent.max_x),
            (min_y + self.cell_deg).min(self.extent.max_y),
        )
    }
}

/// Configuration of the skew-adaptive second-level split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdaptiveConfig {
    /// Target objects per join partition: base cells holding more
    /// entries than this are split into a second-level grid. `0`
    /// disables splitting (pure uniform grid).
    pub target_per_cell: usize,
    /// Upper bound on a split cell's sub-grid edge (sub-cells per
    /// axis), bounding the worst-case replication fan-out per level.
    pub max_subdiv: usize,
    /// Replication budget: a split level is rolled back when
    /// scattering its entries into sub-cells grows them by more than
    /// this factor (a hot cell whose entries all mutually overlap
    /// gains nothing from splitting).
    pub max_replication: usize,
    /// Maximum recursion depth: a sub-cell that is still hot (a
    /// cluster much tighter than the base grid) is split again up to
    /// this many levels.
    pub max_depth: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            target_per_cell: 1024,
            max_subdiv: 16,
            max_replication: 3,
            max_depth: 4,
        }
    }
}

impl AdaptiveConfig {
    /// A config that never splits (uniform-grid behaviour).
    pub fn disabled() -> Self {
        AdaptiveConfig {
            target_per_cell: 0,
            ..AdaptiveConfig::default()
        }
    }

    /// True when splitting can happen at all.
    pub fn enabled(&self) -> bool {
        self.target_per_cell > 0
    }
}

/// What the [`PartitionMap`] builder decided, for `stats.rs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionMapStats {
    /// Cells of the first-level grid.
    pub base_cells: u64,
    /// Hot cells split into a second-level grid.
    pub split_cells: u64,
    /// Join partitions after refinement: every base cell, empty or
    /// not, that was not split, plus the sub-slots of split cells.
    pub slots: u64,
    /// Largest per-cell entry count before refinement.
    pub max_cell_entries: u64,
    /// Largest per-slot entry count after refinement.
    pub max_slot_entries: u64,
}

/// One link of a slot's ownership chain: a grid plus this slot's cell
/// index within it.
pub(crate) type ChainLink = (GridSpec, usize);

/// One join partition: a range of the map's entry array and the region
/// the slot owns — its base `(grid, cell)`, then one sub-grid link per
/// split level below it.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) range: Range<usize>,
    pub(crate) chain: Vec<ChainLink>,
}

/// The partition index: the skew-refined set of join partitions over
/// one entry array (see the module docs).
///
/// The map also decides *reference-point* duplicate elimination: a
/// replicated candidate pair is owned by exactly one slot — the one
/// whose region contains the bottom-left corner of the two MBRs'
/// intersection ([`PartitionMap::owns_point`]) — so the join refines
/// each pair once regardless of how many partitions both objects were
/// copied into.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    pub(crate) grid: GridSpec,
    pub(crate) entries: Vec<PartEntry>,
    pub(crate) slots: Vec<Slot>,
    pub(crate) stats: PartitionMapStats,
}

impl PartitionMap {
    /// Seals scattered `(cell, entry)` pairs — one pair per base cell
    /// an entry's MBR touches ([`GridSpec::cells_for`]), in document
    /// order — into the map. Every non-empty cell becomes one slot,
    /// its entries in document order, unless it holds more than
    /// `cfg.target_per_cell` entries: then it is split into a `k × k`
    /// second-level grid with `k = ⌈√(load/target)⌉` (clamped to
    /// `[2, cfg.max_subdiv]`), recursively while sub-cells stay hot.
    ///
    /// # Panics
    ///
    /// When a pair names a cell outside `grid`.
    pub fn build(
        grid: &GridSpec,
        scattered: Vec<(usize, PartEntry)>,
        cfg: &AdaptiveConfig,
    ) -> Self {
        let base_cells = grid.num_cells();
        let (cells, entries) = sorted_by_cell(scattered);
        let mut map = PartitionMap {
            grid: *grid,
            entries: Vec::with_capacity(entries.len()),
            slots: Vec::new(),
            stats: PartitionMapStats {
                base_cells: base_cells as u64,
                ..PartitionMapStats::default()
            },
        };
        let mut occupied = 0;
        for (cell, range) in runs(&cells) {
            assert!(
                cell < base_cells,
                "cell {cell} outside a {base_cells}-cell grid"
            );
            occupied += 1;
            let load = range.len();
            map.stats.max_cell_entries = map.stats.max_cell_entries.max(load as u64);
            let chain = vec![(*grid, cell)];
            if cfg.enabled() && load > cfg.target_per_cell {
                let (slots, start) = (map.slots.len(), map.entries.len());
                map.split(
                    grid.cell_rect(cell),
                    &entries[range.clone()],
                    chain.clone(),
                    cfg,
                    0,
                );
                if map.slots.len() - slots > 1 {
                    map.stats.split_cells += 1;
                    continue;
                }
                // A single sub-slot means no level split anything:
                // keep the cell whole.
                map.slots.truncate(slots);
                map.entries.truncate(start);
            }
            map.push_slot(&entries[range], chain);
        }
        // Every empty cell counts as an unsplit slot.
        map.stats.slots = (base_cells - occupied + map.slots.len()) as u64;
        map
    }

    /// One recursion level of the adaptive split: choose a `k × k`
    /// sub-grid from this slot's load, scatter, and recurse into
    /// sub-cells that remain above target. Emits the slot whole when
    /// the scatter exceeds the replication budget or the depth bound is
    /// hit.
    fn split(
        &mut self,
        rect: Mbr,
        entries: &[PartEntry],
        chain: Vec<ChainLink>,
        cfg: &AdaptiveConfig,
        depth: usize,
    ) {
        let load = entries.len();
        let edge = rect.width().max(rect.height());
        // `edge` can be NaN for a degenerate rect; only a strictly
        // positive edge may split.
        let splittable_edge = edge > 0.0;
        if load <= cfg.target_per_cell || depth >= cfg.max_depth.max(1) || !splittable_edge {
            return self.push_slot(entries, chain);
        }
        let k = ((load as f64 / cfg.target_per_cell.max(1) as f64)
            .sqrt()
            .ceil() as usize)
            .clamp(2, cfg.max_subdiv.max(2));
        let sub = GridSpec::new(rect, edge / k as f64);
        let budget = load.saturating_mul(cfg.max_replication.max(1));
        let mut scattered = Vec::new();
        for e in entries {
            scattered.extend(sub.cells_for(&e.mbr).map(|c| (c, *e)));
            if scattered.len() > budget {
                return self.push_slot(entries, chain);
            }
        }
        let (cells, scattered) = sorted_by_cell(scattered);
        for (c, range) in runs(&cells) {
            // Recursion on the smaller rect separates clusters tighter
            // than this level's resolution; the depth bound terminates
            // it even when a sub-cell inherited every entry.
            let mut child = chain.clone();
            child.push((sub, c));
            self.split(sub.cell_rect(c), &scattered[range], child, cfg, depth + 1);
        }
    }

    /// Appends one slot holding `entries`.
    fn push_slot(&mut self, entries: &[PartEntry], chain: Vec<ChainLink>) {
        let start = self.entries.len();
        self.entries.extend_from_slice(entries);
        self.stats.max_slot_entries = self.stats.max_slot_entries.max(entries.len() as u64);
        self.slots.push(Slot {
            range: start..self.entries.len(),
            chain,
        });
    }

    /// Number of join partitions; every one holds at least one entry.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// What the builder decided.
    pub fn stats(&self) -> PartitionMapStats {
        self.stats
    }

    /// The entries of one slot, in document order.
    pub fn slot_entries(&self, slot: usize) -> &[PartEntry] {
        &self.entries[self.slots[slot].range.clone()]
    }

    /// The region `slot` owns: its base `(grid, cell)`, then one
    /// `(sub-grid, cell)` link per split level below it.
    pub fn slot_chain(&self, slot: usize) -> &[(GridSpec, usize)] {
        &self.slots[slot].chain
    }

    /// The reference-point test: does `slot` own the point `(x, y)`?
    /// Exactly one slot of the grid owns any point (clamping maps
    /// out-of-extent points to edge cells at every level; a point of
    /// an empty cell is owned by no slot, but no entry covers it), and
    /// the owning slot of a point inside an entry's MBR always holds
    /// that entry, so filtering candidate pairs by ownership of their
    /// intersection corner keeps exactly one copy of every result.
    pub fn owns_point(&self, slot: usize, x: f64, y: f64) -> bool {
        self.slot_chain(slot)
            .iter()
            .all(|(spec, cell)| spec.cell_of_point(x, y) == *cell)
    }

    /// The area (in square degrees) of the region a slot owns — the
    /// denominator of the join's partition-density probe heuristic.
    pub fn slot_area(&self, slot: usize) -> f64 {
        self.slot_chain(slot)
            .last()
            .map_or(0.0, |(spec, cell)| spec.cell_rect(*cell).area())
    }
}

/// Stable-sorts scattered pairs by cell — entries of one cell keep
/// their order — and unzips them into the cells and the entries.
fn sorted_by_cell(mut scattered: Vec<(usize, PartEntry)>) -> (Vec<usize>, Vec<PartEntry>) {
    scattered.sort_by_key(|(cell, _)| *cell);
    scattered.into_iter().unzip()
}

/// The runs of equal cells in a sorted cell list: each cell with the
/// index range it occupies.
fn runs(cells: &[usize]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut start = 0;
    cells.chunk_by(|a, b| a == b).map(move |run| {
        let range = start..start + run.len();
        start = range.end;
        (run[0], range)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(id: u64, x: f64, y: f64, size: f64) -> PartEntry {
        PartEntry {
            id,
            offset: id * 10,
            len: 5,
            mbr: Mbr::new(x, y, x + size, y + size),
        }
    }

    /// Scatters entries into `grid` in order, as the partition sink
    /// does.
    fn scatter(grid: &GridSpec, entries: &[PartEntry]) -> Vec<(usize, PartEntry)> {
        entries
            .iter()
            .flat_map(|e| grid.cells_for(&e.mbr).map(|c| (c, *e)))
            .collect()
    }

    fn slot_ids(map: &PartitionMap, slot: usize) -> Vec<u64> {
        map.slot_entries(slot).iter().map(|e| e.id).collect()
    }

    #[test]
    fn grid_dims_and_cells() {
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 1.0);
        assert_eq!(g.dims(), (4, 2));
        assert_eq!(g.num_cells(), 8);
        // A unit box inside cell (1,0).
        let cells: Vec<usize> = g.cells_for(&Mbr::new(1.1, 0.1, 1.9, 0.9)).collect();
        assert_eq!(cells, vec![1]);
        // A box straddling four cells.
        let cells: Vec<usize> = g.cells_for(&Mbr::new(0.5, 0.5, 1.5, 1.5)).collect();
        assert_eq!(cells, vec![0, 1, 4, 5]);
    }

    #[test]
    fn out_of_extent_boxes_clamp() {
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 2.0), 1.0);
        let cells = |m: Mbr| g.cells_for(&m).collect::<Vec<_>>();
        assert_eq!(cells(Mbr::new(-5.0, -5.0, -4.0, -4.0)), vec![0]);
        assert_eq!(cells(Mbr::new(9.0, 9.0, 10.0, 10.0)), vec![3]);
        assert!(cells(Mbr::EMPTY).is_empty());
    }

    #[test]
    fn flat_index_basics() {
        // Cells arrive unsorted; each non-empty cell becomes one slot,
        // in cell order, its entries in arrival order.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 1.0), 1.0);
        let scattered = vec![
            (3, entry(3, 3.0, 0.0, 0.5)),
            (0, entry(1, 0.0, 0.0, 0.5)),
            (0, entry(2, 0.5, 0.5, 0.4)),
        ];
        let map = PartitionMap::build(&grid, scattered, &AdaptiveConfig::default());
        assert_eq!(map.num_slots(), 2);
        assert_eq!(slot_ids(&map, 0), vec![1, 2]);
        assert_eq!(slot_ids(&map, 1), vec![3]);
        assert_eq!(map.slots[1].chain, vec![(grid, 3)]);
        assert_eq!(map.slot_area(1), 1.0);
        let stats = map.stats();
        assert_eq!((stats.base_cells, stats.slots), (4, 4));
        assert_eq!((stats.max_cell_entries, stats.max_slot_entries), (2, 2));
    }

    #[test]
    fn cell_rect_covers_extent() {
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 1.0);
        assert_eq!(g.cell_rect(0), Mbr::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(g.cell_rect(5), Mbr::new(1.0, 1.0, 2.0, 2.0));
        // Edge cells clip to the extent when it is not a multiple of
        // the cell edge.
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 2.5, 1.0), 1.0);
        assert_eq!(g.cell_rect(2), Mbr::new(2.0, 0.0, 2.5, 1.0));
    }

    #[test]
    fn uniform_map_is_identity() {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 2.0), 1.0);
        let entries = [
            entry(1, 0.0, 0.0, 0.5),
            entry(2, 0.5, 0.5, 0.4),
            entry(3, 1.2, 1.2, 0.5),
        ];
        let map = PartitionMap::build(&grid, scatter(&grid, &entries), &AdaptiveConfig::disabled());
        assert_eq!(map.num_slots(), 2, "one slot per non-empty cell");
        let stats = map.stats();
        assert_eq!(stats.base_cells, 4);
        assert_eq!(stats.split_cells, 0);
        assert_eq!(stats.slots, 4);
        assert_eq!(slot_ids(&map, 0), vec![1, 2]);
        assert_eq!(slot_ids(&map, 1), vec![3]);
    }

    /// A hot cell: many small entries clustered inside base cell 0 of
    /// a 2×1 grid.
    fn hot_entries(n: usize) -> (GridSpec, Vec<(usize, PartEntry)>) {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
        let entries: Vec<PartEntry> = (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 0.1;
                let y = (i / 10 % 10) as f64 * 0.1;
                entry(i as u64, x, y, 0.03)
            })
            .collect();
        let scattered = scatter(&grid, &entries);
        (grid, scattered)
    }

    #[test]
    fn adaptive_map_splits_hot_cells() {
        let (grid, s) = hot_entries(200);
        let cfg = AdaptiveConfig {
            target_per_cell: 16,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::build(&grid, s, &cfg);
        let stats = map.stats();
        assert_eq!(stats.base_cells, 2);
        assert_eq!(stats.split_cells, 1, "only cell 0 is hot");
        assert!(stats.slots > 2, "sub-slots were created: {stats:?}");
        assert!(
            stats.max_slot_entries < stats.max_cell_entries,
            "splitting reduced the hottest partition: {stats:?}"
        );
        // Every original entry survives in at least one slot.
        let mut seen = std::collections::HashSet::new();
        for slot in 0..map.num_slots() {
            seen.extend(slot_ids(&map, slot));
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn adaptive_disabled_is_uniform() {
        let (grid, s) = hot_entries(100);
        let map = PartitionMap::build(&grid, s, &AdaptiveConfig::disabled());
        assert_eq!(map.stats().slots, 2);
        assert_eq!(map.stats().split_cells, 0);
    }

    #[test]
    fn recursion_resolves_tight_hotspots() {
        // 300 tiny entries inside a 0.05°-wide hotspot of a 1° cell: a
        // single split level cannot separate them, recursion can.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
        let s = (0..300u64)
            .map(|i| {
                let x = 0.5 + (i % 20) as f64 * 0.0025;
                let y = 0.5 + (i / 20) as f64 * 0.0025;
                (0, entry(i, x, y, 0.001))
            })
            .collect();
        let cfg = AdaptiveConfig {
            target_per_cell: 32,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::build(&grid, s, &cfg);
        let stats = map.stats();
        assert_eq!(stats.split_cells, 1);
        assert!(
            stats.max_slot_entries <= 4 * 32,
            "recursion must keep splitting the tight cluster: {stats:?}"
        );
    }

    #[test]
    fn adaptive_rolls_back_pathological_splits() {
        // Entries all covering the whole cell: any split replicates
        // every entry into every sub-cell; the budget keeps the cell
        // whole.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
        let s = (0..100u64).map(|i| (0, entry(i, 0.0, 0.0, 1.0))).collect();
        let cfg = AdaptiveConfig {
            target_per_cell: 8,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::build(&grid, s, &cfg);
        assert_eq!(map.stats().split_cells, 0, "split must roll back");
        assert_eq!(map.stats().slots, 2);
        assert_eq!(map.slots[0].chain, vec![(grid, 0)]);
    }

    proptest! {
        #[test]
        fn adaptive_map_preserves_entry_coverage(
            xs in prop::collection::vec((0.0..1.9f64, 0.0..0.9f64, 0.01..0.3f64), 1..80),
            target in 1usize..12,
        ) {
            let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
            let entries: Vec<PartEntry> = xs
                .iter()
                .enumerate()
                .map(|(i, (x, y, size))| entry(i as u64, *x, *y, *size))
                .collect();
            let cfg = AdaptiveConfig { target_per_cell: target, ..AdaptiveConfig::default() };
            let map = PartitionMap::build(&grid, scatter(&grid, &entries), &cfg);
            let mut seen = std::collections::HashSet::new();
            for slot in 0..map.num_slots() {
                seen.extend(slot_ids(&map, slot));
            }
            prop_assert_eq!(seen.len(), xs.len());
        }
    }

    proptest! {
        /// The sink's merge is concatenation, and sealing keeps each
        /// cell's entries in that (document) order.
        #[test]
        fn merge_order_is_preserved(
            left in prop::collection::vec(0u64..100, 0..40),
            right in prop::collection::vec(0u64..100, 0..40),
        ) {
            let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 1.0), 1.0);
            let fill = |ids: &[u64]| -> Vec<(usize, PartEntry)> {
                ids.iter().map(|&id| ((id % 4) as usize, entry(id, id as f64, 0.0, 1.0))).collect()
            };
            let mut merged = fill(&left);
            merged.append(&mut fill(&right));
            let map = PartitionMap::build(&grid, merged, &AdaptiveConfig::disabled());
            for slot in 0..map.num_slots() {
                let cell = map.slots[slot].chain[0].1;
                let expect: Vec<u64> = left
                    .iter()
                    .chain(&right)
                    .copied()
                    .filter(|id| (id % 4) as usize == cell)
                    .collect();
                prop_assert_eq!(slot_ids(&map, slot), expect);
            }
        }
    }
}
