//! Spatial grid partitioning (§4.4 stage 3 and §5.6).
//!
//! Partitioning terminates the first pipeline of a join: geometries
//! (their MBRs plus source offsets) are scattered into fixed-size grid
//! cells; geometries straddling cell boundaries are replicated into
//! every cell they touch (the non-disjoint partitions whose duplicate
//! results the join removes later). Partitioning runs inside the
//! associative scan: every block scatters its features into its own
//! [`ArrayStore`] — one flat `Vec` per cell — and block stores merge by
//! per-cell concatenation in document order.
//!
//! This is the only layout: Fig. 15's chunk-list store and separate
//! partitioning phase measured within noise of it on this engine.
//!
//! # The two-level skew-adaptive partition map
//!
//! A uniform grid serialises skewed joins: when the data clusters (the
//! Fig. 14 experiment), a handful of hot cells hold most of the
//! entries and their per-partition MBR-compare work — superlinear in
//! the cell population — dominates the whole join while every other
//! worker idles. [`PartitionMap`] fixes this with a second level:
//! after the partition pipeline has filled an [`ArrayStore`],
//! per-cell load statistics pick out cells holding more than a target
//! number of objects, and each hot cell is recursively split into its
//! own sub-grid whose resolution is derived from the cell's load
//! (`⌈√(load/target)⌉` sub-cells per axis, capped by
//! [`AdaptiveConfig::max_subdiv`]). Entries of a split cell are
//! scattered into every sub-cell their MBR touches — the same
//! replicate-and-deduplicate contract as the base grid, so the join's
//! duplicate elimination already guarantees identical results.
//!
//! Correctness of the refinement relies only on monotone index
//! clamping: two MBRs that intersect map to overlapping sub-cell index
//! rectangles under *any* sub-grid extent, so every candidate pair of
//! a hot cell survives into at least one of its sub-slots.
//!
//! A split is rolled back when it replicates entries beyond
//! [`AdaptiveConfig::max_replication`] — the pathological case of a
//! cell whose entries all mutually overlap, where refinement would
//! multiply work instead of dividing it.
//!
//! The resulting map is a flat list of *slots* — unsplit base cells
//! read straight from the store, plus materialised sub-cells of split
//! cells — which the join pipeline fans out over instead of base
//! cells. [`PartitionMapStats`] records what the builder decided so
//! `stats.rs` can surface split decisions per query.

use atgis_formats::RawFeature;
use atgis_geometry::Mbr;

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
#[derive(Debug, Clone, Copy)]
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

    /// Indices of every cell a box overlaps (clamped to the extent).
    pub fn cells_for(&self, mbr: &Mbr) -> Vec<usize> {
        if mbr.is_empty() {
            return Vec::new();
        }
        let (nx, ny) = self.dims();
        let clamp = |v: f64, hi: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(hi - 1)
            }
        };
        let x0 = clamp((mbr.min_x - self.extent.min_x) / self.cell_deg, nx);
        let x1 = clamp((mbr.max_x - self.extent.min_x) / self.cell_deg, nx);
        let y0 = clamp((mbr.min_y - self.extent.min_y) / self.cell_deg, ny);
        let y1 = clamp((mbr.max_y - self.extent.min_y) / self.cell_deg, ny);
        let mut out = Vec::with_capacity((x1 - x0 + 1) * (y1 - y0 + 1));
        for y in y0..=y1 {
            for x in x0..=x1 {
                out.push(y * nx + x);
            }
        }
        out
    }

    /// The cell owning a point, using the same clamp-to-extent mapping
    /// as [`GridSpec::cells_for`] — so the cell of any point inside an
    /// MBR is one of the cells the MBR replicates into.
    pub fn cell_of_point(&self, x: f64, y: f64) -> usize {
        let (nx, ny) = self.dims();
        let clamp = |v: f64, hi: usize| -> usize {
            if v < 0.0 {
                0
            } else {
                (v as usize).min(hi - 1)
            }
        };
        let cx = clamp((x - self.extent.min_x) / self.cell_deg, nx);
        let cy = clamp((y - self.extent.min_y) / self.cell_deg, ny);
        cy * nx + cx
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
    /// Join partitions after refinement (unsplit cells + sub-slots).
    pub slots: u64,
    /// Largest per-cell entry count before refinement.
    pub max_cell_entries: u64,
    /// Largest per-slot entry count after refinement.
    pub max_slot_entries: u64,
}

/// One level of a refined slot's ownership chain: the sub-grid laid
/// over the parent region plus this slot's cell index within it.
pub(crate) type ChainLink = (GridSpec, usize);

/// One join partition of the refined map.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// An unsplit base cell, read straight from the store.
    Base(usize),
    /// A (possibly deep) sub-cell of a split hot cell: materialised
    /// entries plus the grid/cell chain below the base level that
    /// identifies the region this slot *owns*.
    Refined {
        entries: Vec<PartEntry>,
        chain: Vec<ChainLink>,
    },
}

/// The two-level partition map: the non-uniform set of join
/// partitions produced by splitting hot cells (see the module docs).
///
/// When built over a known [`GridSpec`] the map also supports the
/// *reference-point* duplicate filter: a replicated candidate pair is
/// owned by exactly one slot — the one whose region contains the
/// bottom-left corner of the two MBRs' intersection
/// ([`PartitionMap::owns_point`]) — so the join refines each pair once
/// regardless of how many partitions both objects were copied into.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    pub(crate) grid: Option<GridSpec>,
    pub(crate) slots: Vec<Slot>,
    pub(crate) stats: PartitionMapStats,
}

impl PartitionMap {
    /// The identity map: one slot per base cell, nothing split. Built
    /// without grid geometry, so the join falls back to end-of-run
    /// duplicate elimination instead of the reference-point filter.
    /// Per-cell load statistics are not collected (they would cost an
    /// extra pass over every entry and nothing reads them here); use
    /// [`PartitionMap::adaptive`] for a stats-bearing map.
    pub fn uniform(store: &ArrayStore) -> Self {
        let cells = store.num_cells();
        PartitionMap {
            grid: None,
            slots: (0..cells).map(Slot::Base).collect(),
            stats: PartitionMapStats {
                base_cells: cells as u64,
                split_cells: 0,
                slots: cells as u64,
                max_cell_entries: 0,
                max_slot_entries: 0,
            },
        }
    }

    /// Builds the skew-adaptive map: per-cell loads are measured and
    /// cells holding more than `cfg.target_per_cell` entries are split
    /// into a `k × k` second-level grid with `k = ⌈√(load/target)⌉`
    /// (clamped to `[2, cfg.max_subdiv]`), recursively while sub-cells
    /// stay hot. With splitting disabled this still returns a
    /// grid-aware uniform map (reference-point filter active).
    pub fn adaptive(grid: &GridSpec, store: &ArrayStore, cfg: &AdaptiveConfig) -> Self {
        let cells = store.num_cells();
        let mut slots = Vec::with_capacity(cells);
        let mut stats = PartitionMapStats {
            base_cells: cells as u64,
            ..PartitionMapStats::default()
        };
        for cell in 0..cells {
            let load = store.cell_len(cell);
            stats.max_cell_entries = stats.max_cell_entries.max(load as u64);
            if !cfg.enabled() || load <= cfg.target_per_cell {
                stats.max_slot_entries = stats.max_slot_entries.max(load as u64);
                slots.push(Slot::Base(cell));
                continue;
            }
            match split_cell(grid, store, cell, cfg) {
                Some(sub_slots) => {
                    stats.split_cells += 1;
                    for (entries, chain) in sub_slots {
                        stats.max_slot_entries = stats.max_slot_entries.max(entries.len() as u64);
                        slots.push(Slot::Refined { entries, chain });
                    }
                }
                None => {
                    // Replication budget exceeded: keep the cell whole.
                    stats.max_slot_entries = stats.max_slot_entries.max(load as u64);
                    slots.push(Slot::Base(cell));
                }
            }
        }
        stats.slots = slots.len() as u64;
        PartitionMap {
            grid: Some(*grid),
            slots,
            stats,
        }
    }

    /// Number of join partitions.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// What the builder decided.
    pub fn stats(&self) -> PartitionMapStats {
        self.stats
    }

    /// True when the map can decide slot ownership of a point — i.e.
    /// the join may use the reference-point duplicate filter instead
    /// of end-of-run deduplication.
    pub fn supports_owner_filter(&self) -> bool {
        self.grid.is_some()
    }

    /// The reference-point test: does `slot` own the point `(x, y)`?
    /// Exactly one slot owns any point (clamping maps out-of-extent
    /// points to edge cells at every level), and the owning slot of a
    /// point inside an entry's MBR always holds that entry, so
    /// filtering candidate pairs by ownership of their intersection
    /// corner keeps exactly one copy of every result. Always true for
    /// maps without grid geometry.
    pub fn owns_point(&self, slot: usize, x: f64, y: f64) -> bool {
        let Some(grid) = &self.grid else {
            return true;
        };
        match &self.slots[slot] {
            Slot::Base(cell) => grid.cell_of_point(x, y) == *cell,
            Slot::Refined { chain, .. } => chain
                .iter()
                .all(|(spec, cell)| spec.cell_of_point(x, y) == *cell),
        }
    }

    /// The area (in square degrees) of the region a slot owns, when
    /// the map knows its grid geometry — the denominator of the join's
    /// partition-density probe heuristic. `None` for maps built
    /// without a [`GridSpec`] (e.g. [`PartitionMap::uniform`]), where
    /// density cannot be derived.
    pub fn slot_area(&self, slot: usize) -> Option<f64> {
        let grid = self.grid.as_ref()?;
        match &self.slots[slot] {
            Slot::Base(cell) => Some(grid.cell_rect(*cell).area()),
            Slot::Refined { chain, .. } => chain
                .last()
                .map(|(spec, cell)| spec.cell_rect(*cell).area()),
        }
    }

    /// Number of entries in one slot, answered in O(1) without
    /// visiting them.
    pub fn slot_len(&self, store: &ArrayStore, slot: usize) -> usize {
        match &self.slots[slot] {
            Slot::Base(cell) => store.cell_len(*cell),
            Slot::Refined { entries, .. } => entries.len(),
        }
    }

    /// The slots holding at least one entry. On the sparse grids the
    /// default extent produces (tens of thousands of cells, a handful
    /// occupied) the join fans out over this list instead of every
    /// slot — an empty slot can only produce the empty
    /// [`crate::join::JoinOutcome`] contribution, so skipping it is
    /// observationally free.
    pub fn occupied_slots(&self, store: &ArrayStore) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&s| self.slot_len(store, s) > 0)
            .collect()
    }

    /// Visits every entry of one slot (insertion order for base cells,
    /// scatter order for refined sub-cells).
    pub fn for_each_entry(&self, store: &ArrayStore, slot: usize, f: impl FnMut(&PartEntry)) {
        let entries = match &self.slots[slot] {
            Slot::Base(cell) => &store.cells[*cell],
            Slot::Refined { entries, .. } => entries,
        };
        entries.iter().for_each(f);
    }
}

/// Scatters a hot cell's entries into its second-level grid,
/// recursively re-splitting sub-cells that stay hot (clusters much
/// tighter than the base grid). Returns `None` when no level managed
/// to split — the caller keeps the cell whole.
fn split_cell(
    grid: &GridSpec,
    store: &ArrayStore,
    cell: usize,
    cfg: &AdaptiveConfig,
) -> Option<Vec<(Vec<PartEntry>, Vec<ChainLink>)>> {
    let entries = store.cells[cell].clone();
    let mut out = Vec::new();
    let chain = vec![(*grid, cell)];
    split_entries(grid.cell_rect(cell), entries, chain, cfg, 0, &mut out);
    // A single output slot means no level split anything.
    if out.len() <= 1 {
        None
    } else {
        Some(out)
    }
}

/// One recursion level of the adaptive split: choose a `k × k`
/// sub-grid from this slot's load, scatter, and recurse into sub-cells
/// that remain above target. Rolls this level back (emitting the slot
/// whole) when the scatter exceeds the replication budget or the depth
/// bound is hit.
fn split_entries(
    rect: Mbr,
    entries: Vec<PartEntry>,
    chain: Vec<ChainLink>,
    cfg: &AdaptiveConfig,
    depth: usize,
    out: &mut Vec<(Vec<PartEntry>, Vec<ChainLink>)>,
) {
    let load = entries.len();
    let edge = rect.width().max(rect.height());
    // `edge` can be NaN for a degenerate rect; only a strictly
    // positive edge may split.
    let splittable_edge = edge > 0.0;
    if load <= cfg.target_per_cell || depth >= cfg.max_depth.max(1) || !splittable_edge {
        out.push((entries, chain));
        return;
    }
    let k = ((load as f64 / cfg.target_per_cell.max(1) as f64)
        .sqrt()
        .ceil() as usize)
        .clamp(2, cfg.max_subdiv.max(2));
    let sub = GridSpec::new(rect, edge / k as f64);
    let mut sub_slots: Vec<Vec<PartEntry>> = vec![Vec::new(); sub.num_cells()];
    let mut replicated = 0usize;
    let budget = load.saturating_mul(cfg.max_replication.max(1));
    for e in &entries {
        for c in sub.cells_for(&e.mbr) {
            sub_slots[c].push(*e);
            replicated += 1;
        }
        if replicated > budget {
            out.push((entries, chain));
            return;
        }
    }
    for (c, slot) in sub_slots.into_iter().enumerate() {
        if slot.is_empty() {
            continue;
        }
        // Recursion on the smaller rect separates clusters tighter
        // than this level's resolution; the depth bound terminates it
        // even when a sub-cell inherited every entry.
        let mut child = chain.clone();
        child.push((sub, c));
        split_entries(sub.cell_rect(c), slot, child, cfg, depth + 1, out);
    }
}

/// The partition store: one flat entry vector per grid cell, with an
/// associative merge (the Fig. 3 aggregation transducer).
#[derive(Debug, Clone)]
pub struct ArrayStore {
    pub(crate) cells: Vec<Vec<PartEntry>>,
}

impl ArrayStore {
    /// Creates an empty store for `cells` cells.
    pub fn new(cells: usize) -> Self {
        ArrayStore {
            cells: vec![Vec::new(); cells],
        }
    }

    /// Appends an entry to a cell.
    pub fn push(&mut self, cell: usize, entry: PartEntry) {
        self.cells[cell].push(entry);
    }

    /// Associative merge: appends `other`'s entries after this store's,
    /// cell by cell, preserving insertion order.
    pub fn merge(mut self, other: Self) -> Self {
        for (mine, mut theirs) in self.cells.iter_mut().zip(other.cells) {
            mine.append(&mut theirs);
        }
        self
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of entries in one cell.
    pub fn cell_len(&self, cell: usize) -> usize {
        self.cells[cell].len()
    }
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

    #[test]
    fn grid_dims_and_cells() {
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 2.0), 1.0);
        assert_eq!(g.dims(), (4, 2));
        assert_eq!(g.num_cells(), 8);
        // A unit box inside cell (1,0).
        assert_eq!(g.cells_for(&Mbr::new(1.1, 0.1, 1.9, 0.9)), vec![1]);
        // A box straddling four cells.
        let cells = g.cells_for(&Mbr::new(0.5, 0.5, 1.5, 1.5));
        assert_eq!(cells, vec![0, 1, 4, 5]);
    }

    #[test]
    fn out_of_extent_boxes_clamp() {
        let g = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 2.0), 1.0);
        assert_eq!(g.cells_for(&Mbr::new(-5.0, -5.0, -4.0, -4.0)), vec![0]);
        assert_eq!(g.cells_for(&Mbr::new(9.0, 9.0, 10.0, 10.0)), vec![3]);
        assert!(g.cells_for(&Mbr::EMPTY).is_empty());
    }

    #[test]
    fn array_store_basics() {
        let mut s = ArrayStore::new(4);
        s.push(0, entry(1, 0.0, 0.0, 1.0));
        s.push(0, entry(2, 0.5, 0.5, 1.0));
        s.push(3, entry(3, 3.0, 3.0, 1.0));
        assert_eq!(s.num_cells(), 4);
        assert_eq!(s.cell_len(0), 2);
        assert_eq!(s.cell_len(1), 0);
        assert_eq!(s.cells[3][0].id, 3);
    }

    fn fill(ids: &[u64]) -> ArrayStore {
        let mut s = ArrayStore::new(4);
        for &id in ids {
            s.push((id % 4) as usize, entry(id, id as f64, 0.0, 1.0));
        }
        s
    }

    #[test]
    fn stores_merge_identically() {
        // Merging two block stores equals filling one store with the
        // concatenated input.
        let merged = fill(&[1, 2, 3]).merge(fill(&[4, 5]));
        assert_eq!(merged.cells, fill(&[1, 2, 3, 4, 5]).cells);
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
        let mut s = ArrayStore::new(4);
        s.push(0, entry(1, 0.0, 0.0, 1.0));
        s.push(0, entry(2, 0.5, 0.5, 1.0));
        s.push(3, entry(3, 3.0, 3.0, 1.0));
        let map = PartitionMap::uniform(&s);
        assert_eq!(map.num_slots(), 4);
        let stats = map.stats();
        assert_eq!(stats.base_cells, 4);
        assert_eq!(stats.split_cells, 0);
        let mut ids = Vec::new();
        map.for_each_entry(&s, 0, |e| ids.push(e.id));
        assert_eq!(ids, vec![1, 2]);
    }

    /// A hot cell: many small entries clustered inside base cell 0 of
    /// a 2×1 grid.
    fn hot_store(n: usize) -> (GridSpec, ArrayStore) {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
        let mut s = ArrayStore::new(grid.num_cells());
        for i in 0..n {
            let x = (i % 10) as f64 * 0.1;
            let y = (i / 10 % 10) as f64 * 0.1;
            let e = entry(i as u64, x, y, 0.03);
            for c in grid.cells_for(&e.mbr) {
                s.push(c, e);
            }
        }
        (grid, s)
    }

    #[test]
    fn adaptive_map_splits_hot_cells() {
        let (grid, s) = hot_store(200);
        let cfg = AdaptiveConfig {
            target_per_cell: 16,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::adaptive(&grid, &s, &cfg);
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
            map.for_each_entry(&s, slot, |e| {
                seen.insert(e.id);
            });
        }
        assert_eq!(seen.len(), 200);
    }

    #[test]
    fn adaptive_disabled_is_uniform() {
        let (grid, s) = hot_store(100);
        let map = PartitionMap::adaptive(&grid, &s, &AdaptiveConfig::disabled());
        assert_eq!(map.num_slots(), 2);
        assert_eq!(map.stats().split_cells, 0);
    }

    #[test]
    fn recursion_resolves_tight_hotspots() {
        // 300 tiny entries inside a 0.05°-wide hotspot of a 1° cell: a
        // single split level cannot separate them, recursion can.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
        let mut s = ArrayStore::new(grid.num_cells());
        for i in 0..300u64 {
            let x = 0.5 + (i % 20) as f64 * 0.0025;
            let y = 0.5 + (i / 20) as f64 * 0.0025;
            s.push(0, entry(i, x, y, 0.001));
        }
        let cfg = AdaptiveConfig {
            target_per_cell: 32,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::adaptive(&grid, &s, &cfg);
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
        let mut s = ArrayStore::new(grid.num_cells());
        for i in 0..100u64 {
            s.push(0, entry(i, 0.0, 0.0, 1.0));
        }
        let cfg = AdaptiveConfig {
            target_per_cell: 8,
            ..AdaptiveConfig::default()
        };
        let map = PartitionMap::adaptive(&grid, &s, &cfg);
        assert_eq!(map.stats().split_cells, 0, "split must roll back");
        assert_eq!(map.num_slots(), 2);
    }

    proptest! {
        #[test]
        fn adaptive_map_preserves_entry_coverage(
            xs in prop::collection::vec((0.0..1.9f64, 0.0..0.9f64, 0.01..0.3f64), 1..80),
            target in 1usize..12,
        ) {
            let grid = GridSpec::new(Mbr::new(0.0, 0.0, 2.0, 1.0), 1.0);
            let mut s = ArrayStore::new(grid.num_cells());
            for (i, (x, y, size)) in xs.iter().enumerate() {
                let e = entry(i as u64, *x, *y, *size);
                for c in grid.cells_for(&e.mbr) {
                    s.push(c, e);
                }
            }
            let cfg = AdaptiveConfig { target_per_cell: target, ..AdaptiveConfig::default() };
            let map = PartitionMap::adaptive(&grid, &s, &cfg);
            let mut seen = std::collections::HashSet::new();
            for slot in 0..map.num_slots() {
                map.for_each_entry(&s, slot, |e| { seen.insert(e.id); });
            }
            prop_assert_eq!(seen.len(), xs.len());
        }
    }

    proptest! {
        #[test]
        fn merge_order_is_preserved(
            left in prop::collection::vec(0u64..100, 0..40),
            right in prop::collection::vec(0u64..100, 0..40),
        ) {
            let merged = fill(&left).merge(fill(&right));
            for cell in 0..4 {
                let ids: Vec<u64> = merged.cells[cell].iter().map(|e| e.id).collect();
                let expect: Vec<u64> = left
                    .iter()
                    .chain(&right)
                    .copied()
                    .filter(|id| (id % 4) as usize == cell)
                    .collect();
                prop_assert_eq!(ids, expect);
            }
        }
    }
}
