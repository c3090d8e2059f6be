//! Seeded sweep of the partition index (`PartitionMap::build`) against
//! references written here from the grid's documented clamp rule: a
//! coordinate falls in column `⌊(x − min_x) / cell⌋`, clamped into the
//! grid, and a box covers every cell between its corners' cells.
//! Random grids, cell sizes, split settings and entries — including
//! boxes partly or wholly outside the extent and zero-area boxes —
//! drawn from the torture RNG; the seed is printed, replay a failure
//! with `ATGIS_FAULT_SEED=<seed>`. CI runs it under fresh seeds.
//!
//! Three properties:
//! 1. with splitting off, each slot is one non-empty cell, in cell
//!    order, holding the entries that cover the cell in document
//!    order;
//! 2. with splitting on, each slot holds exactly the entries that
//!    cover every cell of its ownership chain, in document order,
//!    every (entry, covered cell) pair lands in some slot of that cell,
//!    and the stats count `base_cells − split_cells + sub-slots`;
//! 3. a point inside an entry's box is owned by exactly one slot, and
//!    that slot holds the entry.

use atgis::partition::{GridSpec, PartEntry};
use atgis::{AdaptiveConfig, PartitionMap};
use atgis_geometry::Mbr;
use atgis_tests::XorShift64;
use std::collections::BTreeSet;

const MAPS: usize = 200;
const POINTS_PER_MAP: usize = 64;

struct Gen(XorShift64);

impl Gen {
    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    fn grid(&mut self) -> GridSpec {
        let (x, y) = (self.range(-100.0, 100.0), self.range(-60.0, 60.0));
        let (w, h) = (self.range(0.5, 40.0), self.range(0.5, 40.0));
        // Between 1 and ~15 cells per axis.
        let cell = self.range(w.max(h) / 15.0, w.max(h) * 1.2);
        GridSpec::new(Mbr::new(x, y, x + w, y + h), cell)
    }

    /// A box around a point up to 30 % outside the extent on each
    /// side: a quarter are points, an eighth are segments, a sixteenth
    /// lie wholly outside the extent.
    fn mbr(&mut self, grid: &GridSpec) -> Mbr {
        let e = grid.extent;
        let (w, h) = (e.width(), e.height());
        let (x, y) = if self.below(16) == 0 {
            (e.max_x + self.range(0.0, w), e.min_y - self.range(0.0, h))
        } else {
            (
                self.range(e.min_x - 0.3 * w, e.max_x + 0.3 * w),
                self.range(e.min_y - 0.3 * h, e.max_y + 0.3 * h),
            )
        };
        let size = grid.cell_deg * self.range(0.0, 2.5);
        match self.below(8) {
            0 | 1 => Mbr::new(x, y, x, y),
            2 => Mbr::new(x, y, x + size, y),
            _ => Mbr::new(x, y, x + size, y + self.range(0.0, size)),
        }
    }

    fn entries(&mut self, grid: &GridSpec) -> Vec<PartEntry> {
        let n = 1 + self.below(240);
        (0..n as u64)
            .map(|id| PartEntry {
                id,
                offset: id * 7,
                len: 7,
                mbr: self.mbr(grid),
            })
            .collect()
    }

    fn config(&mut self) -> AdaptiveConfig {
        AdaptiveConfig {
            target_per_cell: 1 + self.below(24),
            max_subdiv: 2 + self.below(6),
            max_replication: 1 + self.below(4),
            max_depth: 1 + self.below(4),
        }
    }

    /// A point inside `m` (its corner for a degenerate box).
    fn point_in(&mut self, m: &Mbr) -> (f64, f64) {
        let x = self.range(m.min_x, m.max_x).clamp(m.min_x, m.max_x);
        let y = self.range(m.min_y, m.max_y).clamp(m.min_y, m.max_y);
        (x, y)
    }
}

/// The cell index range `[lo, hi]` a box spans on one axis of `grid`,
/// clamped into `n` cells.
fn span(lo: f64, hi: f64, origin: f64, cell: f64, n: usize) -> (usize, usize) {
    let index = |v: f64| ((v - origin) / cell).floor().clamp(0.0, (n - 1) as f64) as usize;
    (index(lo), index(hi))
}

/// Does `m` cover `cell` of `grid`?
fn covers(grid: &GridSpec, cell: usize, m: &Mbr) -> bool {
    let (nx, ny) = grid.dims();
    let (cx, cy) = (cell % nx, cell / nx);
    let e = grid.extent;
    let (x0, x1) = span(m.min_x, m.max_x, e.min_x, grid.cell_deg, nx);
    let (y0, y1) = span(m.min_y, m.max_y, e.min_y, grid.cell_deg, ny);
    (x0..=x1).contains(&cx) && (y0..=y1).contains(&cy)
}

/// The partition sink's input: one pair per covered cell, in document
/// order.
fn scatter(grid: &GridSpec, entries: &[PartEntry]) -> Vec<(usize, PartEntry)> {
    entries
        .iter()
        .flat_map(|e| grid.cells_for(&e.mbr).map(move |c| (c, *e)))
        .collect()
}

fn ids(entries: &[PartEntry]) -> Vec<u64> {
    entries.iter().map(|e| e.id).collect()
}

/// Entries covering every link of `chain`, in document order.
fn chain_reference(chain: &[(GridSpec, usize)], entries: &[PartEntry]) -> Vec<u64> {
    entries
        .iter()
        .filter(|e| chain.iter().all(|(g, c)| covers(g, *c, &e.mbr)))
        .map(|e| e.id)
        .collect()
}

fn unsplit_matches_reference(grid: &GridSpec, entries: &[PartEntry], round: usize) {
    let map = PartitionMap::build(grid, scatter(grid, entries), &AdaptiveConfig::disabled());
    let mut slot = 0;
    for cell in 0..grid.num_cells() {
        let want: Vec<u64> = entries
            .iter()
            .filter(|e| covers(grid, cell, &e.mbr))
            .map(|e| e.id)
            .collect();
        if want.is_empty() {
            continue;
        }
        assert!(
            slot < map.num_slots(),
            "round {round}: cell {cell} has no slot"
        );
        assert_eq!(map.slot_chain(slot), [(*grid, cell)], "round {round}");
        assert_eq!(
            ids(map.slot_entries(slot)),
            want,
            "round {round}, cell {cell}"
        );
        slot += 1;
    }
    assert_eq!(
        map.num_slots(),
        slot,
        "round {round}: a slot without a cell"
    );
    let stats = map.stats();
    assert_eq!(stats.slots, grid.num_cells() as u64, "round {round}");
    assert_eq!(stats.split_cells, 0, "round {round}");
}

/// Checks properties 2 and 3 on one split-enabled map; returns whether
/// any cell split.
fn split_matches_reference(
    gen: &mut Gen,
    grid: &GridSpec,
    entries: &[PartEntry],
    cfg: &AdaptiveConfig,
    round: usize,
) -> bool {
    let map = PartitionMap::build(grid, scatter(grid, entries), cfg);
    let mut landed = BTreeSet::new();
    let mut split = BTreeSet::new();
    let mut sub_slots = 0;
    for slot in 0..map.num_slots() {
        let chain = map.slot_chain(slot);
        assert_eq!(chain[0].0, *grid, "round {round}: slot {slot}");
        let got = ids(map.slot_entries(slot));
        assert!(!got.is_empty(), "round {round}: slot {slot} is empty");
        assert_eq!(
            got,
            chain_reference(chain, entries),
            "round {round}: slot {slot}, chain {chain:?}"
        );
        if chain.len() > 1 {
            sub_slots += 1;
            split.insert(chain[0].1);
        }
        landed.extend(got.iter().map(|&id| (id, chain[0].1)));
    }
    for e in entries {
        for cell in (0..grid.num_cells()).filter(|&c| covers(grid, c, &e.mbr)) {
            assert!(
                landed.contains(&(e.id, cell)),
                "round {round}: entry {} lost from cell {cell}",
                e.id
            );
        }
    }
    let stats = map.stats();
    assert_eq!(stats.base_cells, grid.num_cells() as u64, "round {round}");
    assert_eq!(stats.split_cells, split.len() as u64, "round {round}");
    assert_eq!(
        stats.slots,
        stats.base_cells - stats.split_cells + sub_slots,
        "round {round}"
    );

    for _ in 0..POINTS_PER_MAP {
        let e = &entries[gen.below(entries.len())];
        let (x, y) = gen.point_in(&e.mbr);
        let owners: Vec<usize> = (0..map.num_slots())
            .filter(|&s| map.owns_point(s, x, y))
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "round {round}: ({x}, {y}) inside entry {} has owners {owners:?}",
            e.id
        );
        assert!(
            map.slot_entries(owners[0]).iter().any(|o| o.id == e.id),
            "round {round}: the owner of ({x}, {y}) lacks entry {}",
            e.id
        );
    }
    !split.is_empty()
}

#[test]
fn partition_map_agrees_with_references_under_seeded_sweep() {
    let mut gen = Gen(XorShift64::from_env());
    let mut maps_with_splits = 0;
    for round in 0..MAPS {
        let grid = gen.grid();
        let entries = gen.entries(&grid);
        unsplit_matches_reference(&grid, &entries, round);
        let cfg = gen.config();
        if split_matches_reference(&mut gen, &grid, &entries, &cfg, round) {
            maps_with_splits += 1;
        }
    }
    // Splits must be common, or property 2 proves little.
    assert!(
        maps_with_splits > MAPS / 4,
        "only {maps_with_splits} of {MAPS} maps split a cell"
    );
}
