//! The snapshot format: one file per dataset fingerprint holding
//! every piece of derived state a serving process would otherwise
//! rebuild by parsing — sealed partition indexes (per partitioning
//! configuration), cached [`ShardSet`] MBR probes (per requested
//! shard count) and finished single-pass aggregates (per predicate).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "ATGS" | version u16 | generation u64 | dataset_len u64
//!   | fingerprint u64 | header checksum u64
//! section count u32
//! per section: id u16 | payload_len u64 | payload checksum u64 | payload
//! ```
//!
//! A partition index is its map, written flat: the base grid, the
//! entry array once, then per slot its entry range and its ownership
//! chain (the base `(grid, cell)` first), then the map stats. The
//! ranges tile the entry array in order, every range is non-empty,
//! every chain is non-empty and names cells inside its grids, and the
//! first link's grid is the map's — decode rejects anything else.
//!
//! Every region is covered by a checksum (the header by its own, each
//! section payload by its own), so a torn write, a bit flip or a
//! truncation surfaces as a structured [`PersistError`] — decode
//! validates lengths and counts before allocating and **never**
//! panics on foreign bytes. Encoding is canonical: entries are sorted
//! by their encoded key, so the same in-memory state always produces
//! the same file bytes.

use super::codec::{fnv1a, Reader, Writer};
use super::PersistError;
use crate::batch::{IndexKey, PartitionIndex};
use crate::partition::{
    AdaptiveConfig, GridSpec, PartEntry, PartitionMap, PartitionMapStats, Slot,
};
use crate::result::QueryResult;
use crate::result::{AggregateValues, JoinPair, MatchRecord};
use crate::scheduler::{QueryKey, RegionKey};
use crate::shard::{Shard, ShardSet};
use atgis_geometry::polygon::{LineString, MultiPolygon, Ring};
use atgis_geometry::{Geometry, Mbr, Point, Polygon};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// File magic: "ATGS".
const MAGIC: [u8; 4] = *b"ATGS";
/// Current format version. Bump on any layout change; a mismatched
/// snapshot is ignored (cold parse), never misread. Version 2 dropped
/// the index key's store/phase tags, the store tag with its list-store
/// layout, and the per-entry join-side byte. Version 3 writes the
/// partition index flat — one entry array, slot ranges and chains —
/// instead of a per-cell store and tagged base/refined slots.
pub const SNAPSHOT_VERSION: u16 = 3;
/// Fixed header size: magic + version + generation + dataset_len +
/// fingerprint + header checksum.
const HEADER_LEN: usize = 4 + 2 + 8 + 8 + 8 + 8;

/// Section ids.
const SECTION_INDEXES: u16 = 1;
const SECTION_SHARD_SETS: u16 = 2;
const SECTION_AGGREGATES: u16 = 3;

/// Nesting bound for recursive geometry decode: a crafted collection
/// chain deeper than this is malformed, not a stack overflow.
const MAX_GEOMETRY_DEPTH: usize = 32;

/// The decoded (or to-be-encoded) contents of one snapshot file: the
/// derived state of one dataset, keyed by its content fingerprint.
pub struct Snapshot {
    pub(crate) generation: u64,
    pub(crate) dataset_len: u64,
    pub(crate) fingerprint: u64,
    pub(crate) indexes: Vec<(IndexKey, Arc<PartitionIndex>)>,
    pub(crate) shard_sets: Vec<(usize, Arc<ShardSet>)>,
    pub(crate) aggregates: Vec<(QueryKey, QueryResult)>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("generation", &self.generation)
            .field("dataset_len", &self.dataset_len)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("indexes", &self.indexes.len())
            .field("shard_sets", &self.shard_sets.len())
            .field("aggregates", &self.aggregates.len())
            .finish()
    }
}

impl Snapshot {
    /// The dataset generation embedded at save time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Partition indexes captured (one per partitioning config).
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Shard layouts captured (one per requested shard count).
    pub fn shard_set_count(&self) -> usize {
        self.shard_sets.len()
    }

    /// Finished single-pass aggregates captured.
    pub fn aggregate_count(&self) -> usize {
        self.aggregates.len()
    }
}

// ---------------------------------------------------------------- encode

/// Encodes a snapshot into its canonical file bytes.
pub(crate) fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u64(snap.generation);
    w.u64(snap.dataset_len);
    w.u64(snap.fingerprint);
    let digest = fnv1a(0, w.bytes());
    w.u64(digest);

    let sections = [
        (SECTION_INDEXES, encode_indexes(&snap.indexes)),
        (SECTION_SHARD_SETS, encode_shard_sets(&snap.shard_sets)),
        (SECTION_AGGREGATES, encode_aggregates(&snap.aggregates)),
    ];
    w.count(sections.len());
    for (id, payload) in sections {
        w.u16(id);
        w.u64(payload.len() as u64);
        w.u64(fnv1a(0, &payload));
        w.raw(&payload);
    }
    w.into_bytes()
}

fn encode_indexes(indexes: &[(IndexKey, Arc<PartitionIndex>)]) -> Vec<u8> {
    // Canonical order: sort by the encoded key bytes (the in-memory
    // cache is an unordered map).
    let mut entries: Vec<(Vec<u8>, &Arc<PartitionIndex>)> = indexes
        .iter()
        .map(|(k, v)| {
            let mut kw = Writer::new();
            encode_index_key(&mut kw, k);
            (kw.into_bytes(), v)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut w = Writer::new();
    w.count(entries.len());
    for (key_bytes, index) in entries {
        w.raw(&key_bytes);
        encode_partition_index(&mut w, index);
    }
    w.into_bytes()
}

fn encode_index_key(w: &mut Writer, key: &IndexKey) {
    w.u64(key.cell_deg);
    for v in key.extent {
        w.u64(v);
    }
    w.u64(key.adaptive.target_per_cell as u64);
    w.u64(key.adaptive.max_subdiv as u64);
    w.u64(key.adaptive.max_replication as u64);
    w.u64(key.adaptive.max_depth as u64);
}

fn encode_partition_index(w: &mut Writer, index: &PartitionIndex) {
    encode_partition_map(w, &index.map);
    w.u64(index.refine.as_nanos().min(u128::from(u64::MAX)) as u64);
    match &index.xml_table {
        Some(table) => {
            w.bool(true);
            // Canonical order: the map iterates nondeterministically.
            let mut entries: Vec<(&u64, &Geometry)> = table.iter().collect();
            entries.sort_by_key(|(off, _)| **off);
            w.count(entries.len());
            for (offset, geometry) in entries {
                w.u64(*offset);
                encode_geometry(w, geometry);
            }
        }
        None => w.bool(false),
    }
}

fn encode_part_entry(w: &mut Writer, e: &PartEntry) {
    w.u64(e.id);
    w.u64(e.offset);
    w.u32(e.len);
    encode_mbr(w, &e.mbr);
}

fn encode_mbr(w: &mut Writer, m: &Mbr) {
    w.f64(m.min_x);
    w.f64(m.min_y);
    w.f64(m.max_x);
    w.f64(m.max_y);
}

fn encode_grid(w: &mut Writer, g: &GridSpec) {
    encode_mbr(w, &g.extent);
    w.f64(g.cell_deg);
}

fn encode_partition_map(w: &mut Writer, map: &PartitionMap) {
    encode_grid(w, &map.grid);
    w.count(map.entries.len());
    for e in &map.entries {
        encode_part_entry(w, e);
    }
    w.count(map.slots.len());
    for slot in &map.slots {
        w.u64(slot.range.start as u64);
        w.u64(slot.range.end as u64);
        w.count(slot.chain.len());
        for (spec, cell) in &slot.chain {
            encode_grid(w, spec);
            w.u64(*cell as u64);
        }
    }
    let s = map.stats;
    w.u64(s.base_cells);
    w.u64(s.split_cells);
    w.u64(s.slots);
    w.u64(s.max_cell_entries);
    w.u64(s.max_slot_entries);
}

fn encode_geometry(w: &mut Writer, g: &Geometry) {
    match g {
        Geometry::Point(p) => {
            w.u8(0);
            w.f64(p.x);
            w.f64(p.y);
        }
        Geometry::LineString(ls) => {
            w.u8(1);
            encode_points(w, &ls.points);
        }
        Geometry::Polygon(p) => {
            w.u8(2);
            encode_polygon(w, p);
        }
        Geometry::MultiPolygon(mp) => {
            w.u8(3);
            w.count(mp.polygons.len());
            for p in &mp.polygons {
                encode_polygon(w, p);
            }
        }
        Geometry::Collection(gs) => {
            w.u8(4);
            w.count(gs.len());
            for g in gs {
                encode_geometry(w, g);
            }
        }
    }
}

fn encode_polygon(w: &mut Writer, p: &Polygon) {
    encode_points(w, &p.exterior.points);
    w.count(p.holes.len());
    for h in &p.holes {
        encode_points(w, &h.points);
    }
}

fn encode_points(w: &mut Writer, points: &[Point]) {
    w.count(points.len());
    for p in points {
        w.f64(p.x);
        w.f64(p.y);
    }
}

fn encode_shard_sets(sets: &[(usize, Arc<ShardSet>)]) -> Vec<u8> {
    let mut entries: Vec<(usize, &Arc<ShardSet>)> =
        sets.iter().map(|(count, set)| (*count, set)).collect();
    entries.sort_by_key(|(count, _)| *count);
    let mut w = Writer::new();
    w.count(entries.len());
    for (requested, set) in entries {
        w.u64(requested as u64);
        w.count(set.shards().len());
        for s in set.shards() {
            w.u64(s.start as u64);
            w.u64(s.end as u64);
            match &s.mbr {
                Some(m) => {
                    w.bool(true);
                    encode_mbr(&mut w, m);
                }
                None => w.bool(false),
            }
            w.u64(s.features);
        }
    }
    w.into_bytes()
}

fn encode_aggregates(aggregates: &[(QueryKey, QueryResult)]) -> Vec<u8> {
    let mut entries: Vec<(Vec<u8>, &QueryResult)> = aggregates
        .iter()
        .map(|(k, r)| {
            let mut kw = Writer::new();
            encode_query_key(&mut kw, k);
            (kw.into_bytes(), r)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut w = Writer::new();
    w.count(entries.len());
    for (key_bytes, result) in entries {
        w.raw(&key_bytes);
        encode_query_result(&mut w, result);
    }
    w.into_bytes()
}

fn encode_query_key(w: &mut Writer, key: &QueryKey) {
    match key {
        QueryKey::Containment { region } => {
            w.u8(0);
            encode_region_key(w, region);
        }
        QueryKey::Aggregation {
            region,
            want_area,
            want_perimeter,
            model,
            strategy,
        } => {
            w.u8(1);
            encode_region_key(w, region);
            w.bool(*want_area);
            w.bool(*want_perimeter);
            w.u8(*model);
            w.u8(*strategy);
        }
        QueryKey::Join { threshold } => {
            w.u8(2);
            w.u64(*threshold);
        }
        QueryKey::Combined {
            threshold,
            min_perimeter,
            max_perimeter,
        } => {
            w.u8(3);
            w.u64(*threshold);
            w.u64(*min_perimeter);
            w.u64(*max_perimeter);
        }
    }
}

fn encode_region_key(w: &mut Writer, region: &RegionKey) {
    w.count(region.0.len());
    for ring in &region.0 {
        w.count(ring.len());
        for (x, y) in ring {
            w.u64(*x);
            w.u64(*y);
        }
    }
}

fn encode_query_result(w: &mut Writer, result: &QueryResult) {
    match result {
        QueryResult::Matches(matches) => {
            w.u8(0);
            w.count(matches.len());
            for m in matches {
                w.u64(m.id);
                w.u64(m.offset);
                w.u32(m.len);
                encode_mbr(w, &m.mbr);
            }
        }
        QueryResult::Aggregate(v) => {
            w.u8(1);
            w.u64(v.count);
            w.f64(v.total_area);
            w.f64(v.total_perimeter);
        }
        QueryResult::Joined(pairs) => {
            w.u8(2);
            w.count(pairs.len());
            for p in pairs {
                w.u64(p.left_id);
                w.u64(p.right_id);
                w.u64(p.left_offset);
                w.u64(p.right_offset);
            }
        }
        QueryResult::Combined {
            pairs,
            total_union_area,
        } => {
            w.u8(3);
            w.u64(*pairs);
            w.f64(*total_union_area);
        }
    }
}

// ---------------------------------------------------------------- decode

/// Decodes snapshot file bytes, validating the header checksum, the
/// format version and every section checksum before touching any
/// payload. Any inconsistency is a structured [`PersistError`];
/// nothing in here panics on foreign bytes.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(PersistError::Truncated {
            what: "snapshot header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let mut r = Reader::new(bytes);
    let magic = r.raw(4, "magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::VersionSkew { found: version });
    }
    let generation = r.u64("generation")?;
    let dataset_len = r.u64("dataset_len")?;
    let fingerprint = r.u64("fingerprint")?;
    let declared = r.u64("header checksum")?;
    if fnv1a(0, &bytes[..HEADER_LEN - 8]) != declared {
        return Err(PersistError::ChecksumMismatch {
            what: "snapshot header",
        });
    }

    let mut snap = Snapshot {
        generation,
        dataset_len,
        fingerprint,
        indexes: Vec::new(),
        shard_sets: Vec::new(),
        aggregates: Vec::new(),
    };
    // Frame overhead per section: id + len + checksum.
    let sections = r.count(2 + 8 + 8, "section table")?;
    for _ in 0..sections {
        let id = r.u16("section id")?;
        let len = r.u64("section length")?;
        let len = usize::try_from(len).map_err(|_| PersistError::Malformed {
            what: "section length",
            detail: format!("{len} exceeds the host usize"),
        })?;
        let declared = r.u64("section checksum")?;
        let payload = r.raw(len, "section payload")?;
        if fnv1a(0, payload) != declared {
            return Err(PersistError::ChecksumMismatch {
                what: "section payload",
            });
        }
        let mut pr = Reader::new(payload);
        match id {
            SECTION_INDEXES => snap.indexes = decode_indexes(&mut pr)?,
            SECTION_SHARD_SETS => snap.shard_sets = decode_shard_sets(&mut pr, dataset_len)?,
            SECTION_AGGREGATES => snap.aggregates = decode_aggregates(&mut pr)?,
            // Unknown section under a matching version: reject rather
            // than guess (versions change when sections do).
            other => {
                return Err(PersistError::Malformed {
                    what: "section id",
                    detail: format!("unknown section {other}"),
                })
            }
        }
        if !pr.is_empty() {
            return Err(PersistError::Malformed {
                what: "section payload",
                detail: format!("{} trailing bytes", pr.remaining()),
            });
        }
    }
    if !r.is_empty() {
        return Err(PersistError::Malformed {
            what: "snapshot",
            detail: format!("{} trailing bytes", r.remaining()),
        });
    }
    Ok(snap)
}

fn decode_indexes(
    r: &mut Reader<'_>,
) -> Result<Vec<(IndexKey, Arc<PartitionIndex>)>, PersistError> {
    let n = r.count(MIN_INDEX_ENTRY_LEN, "index entries")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = decode_index_key(r)?;
        let index = decode_partition_index(r)?;
        out.push((key, Arc::new(index)));
    }
    Ok(out)
}

fn decode_index_key(r: &mut Reader<'_>) -> Result<IndexKey, PersistError> {
    let cell_deg = r.u64("index key cell size")?;
    let extent = [
        r.u64("index key extent")?,
        r.u64("index key extent")?,
        r.u64("index key extent")?,
        r.u64("index key extent")?,
    ];
    let adaptive = AdaptiveConfig {
        target_per_cell: r.usize("adaptive target")?,
        max_subdiv: r.usize("adaptive max_subdiv")?,
        max_replication: r.usize("adaptive max_replication")?,
        max_depth: r.usize("adaptive max_depth")?,
    };
    Ok(IndexKey {
        cell_deg,
        extent,
        adaptive,
    })
}

/// Encoded size of one [`PartEntry`]: id + offset + len + mbr.
const PART_ENTRY_LEN: usize = 8 + 8 + 4 + 32;

/// Encoded size of the smallest index entry: the key (cell size,
/// extent, four adaptive knobs), a map with no entries and no slots
/// (grid, entry count, slot count, five stats), the refine time and
/// the XML-table flag.
const MIN_INDEX_ENTRY_LEN: usize = (8 + 32 + 32) + (GRID_LEN + 4 + 4 + 40) + 8 + 1;

/// Encoded size of a [`GridSpec`]: extent + cell size.
const GRID_LEN: usize = 32 + 8;

/// Encoded size of the smallest slot: its range and an empty chain
/// (rejected once read, but syntactically whole).
const MIN_SLOT_LEN: usize = 8 + 8 + 4;

fn decode_part_entry(r: &mut Reader<'_>) -> Result<PartEntry, PersistError> {
    Ok(PartEntry {
        id: r.u64("entry id")?,
        offset: r.u64("entry offset")?,
        len: r.u32("entry length")?,
        mbr: decode_mbr(r)?,
    })
}

fn decode_mbr(r: &mut Reader<'_>) -> Result<Mbr, PersistError> {
    Ok(Mbr {
        min_x: r.f64("mbr")?,
        min_y: r.f64("mbr")?,
        max_x: r.f64("mbr")?,
        max_y: r.f64("mbr")?,
    })
}

fn decode_grid(r: &mut Reader<'_>) -> Result<GridSpec, PersistError> {
    let extent = decode_mbr(r)?;
    let cell_deg = r.f64("grid cell size")?;
    // GridSpec arithmetic divides by the cell size and multiplies the
    // dimensions; a snapshot can only hold grids a running engine
    // actually built.
    if !(cell_deg.is_finite() && cell_deg > 0.0) {
        return Err(PersistError::Malformed {
            what: "grid cell size",
            detail: format!("{cell_deg}"),
        });
    }
    let grid = GridSpec { extent, cell_deg };
    let (nx, ny) = grid.dims();
    if nx.checked_mul(ny).is_none() {
        return Err(PersistError::Malformed {
            what: "grid dimensions",
            detail: format!("{nx} × {ny} cells"),
        });
    }
    Ok(grid)
}

fn decode_partition_index(r: &mut Reader<'_>) -> Result<PartitionIndex, PersistError> {
    let map = decode_partition_map(r)?;
    let refine = Duration::from_nanos(r.u64("refine nanos")?);
    let xml_table = if r.bool("xml table flag")? {
        let n = r.count(8 + 1, "xml table entries")?;
        let mut table = HashMap::with_capacity(n);
        for _ in 0..n {
            let offset = r.u64("xml table offset")?;
            let geometry = decode_geometry(r, 0)?;
            table.insert(offset, geometry);
        }
        Some(Arc::new(table))
    } else {
        None
    };
    Ok(PartitionIndex {
        map,
        refine,
        xml_table,
    })
}

fn decode_partition_map(r: &mut Reader<'_>) -> Result<PartitionMap, PersistError> {
    let malformed = |what, detail| Err(PersistError::Malformed { what, detail });
    let grid = decode_grid(r)?;
    let n = r.count(PART_ENTRY_LEN, "map entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(decode_part_entry(r)?);
    }
    let n = r.count(MIN_SLOT_LEN, "map slots")?;
    let mut slots = Vec::with_capacity(n);
    // The join slices the entry array by these ranges and filters
    // pairs by these chains: a range must start where the previous
    // one ended, and a chain must own a region of the map's grid, or
    // the slot's pairs would index out of bounds or silently vanish.
    let mut end = 0;
    for _ in 0..n {
        let range = r.usize("slot start")?..r.usize("slot end")?;
        if range.start != end || range.is_empty() || range.end > entries.len() {
            let detail = format!("{range:?} after {end} of {} entries", entries.len());
            return malformed("slot range", detail);
        }
        end = range.end;
        let links = r.count(GRID_LEN + 8, "slot chain")?;
        if links == 0 {
            return malformed("slot chain", "empty".into());
        }
        let mut chain = Vec::with_capacity(links);
        for _ in 0..links {
            let spec = decode_grid(r)?;
            let cell = r.usize("chain cell")?;
            if cell >= spec.num_cells() {
                let detail = format!("cell {cell} of {}", spec.num_cells());
                return malformed("chain cell", detail);
            }
            chain.push((spec, cell));
        }
        if chain[0].0 != grid {
            return malformed("slot chain", "the first link is not the map's grid".into());
        }
        slots.push(Slot { range, chain });
    }
    if end != entries.len() {
        return malformed(
            "slot ranges",
            format!("end at {end} of {} entries", entries.len()),
        );
    }
    let stats = PartitionMapStats {
        base_cells: r.u64("map stats")?,
        split_cells: r.u64("map stats")?,
        slots: r.u64("map stats")?,
        max_cell_entries: r.u64("map stats")?,
        max_slot_entries: r.u64("map stats")?,
    };
    Ok(PartitionMap {
        grid,
        entries,
        slots,
        stats,
    })
}

fn decode_geometry(r: &mut Reader<'_>, depth: usize) -> Result<Geometry, PersistError> {
    if depth > MAX_GEOMETRY_DEPTH {
        return Err(PersistError::Malformed {
            what: "geometry",
            detail: format!("nesting deeper than {MAX_GEOMETRY_DEPTH}"),
        });
    }
    Ok(match r.u8("geometry tag")? {
        0 => Geometry::Point(Point {
            x: r.f64("point")?,
            y: r.f64("point")?,
        }),
        1 => Geometry::LineString(LineString {
            points: decode_points(r)?,
        }),
        2 => Geometry::Polygon(decode_polygon(r)?),
        3 => {
            let n = r.count(4, "multipolygon members")?;
            let mut polygons = Vec::with_capacity(n);
            for _ in 0..n {
                polygons.push(decode_polygon(r)?);
            }
            Geometry::MultiPolygon(MultiPolygon { polygons })
        }
        4 => {
            let n = r.count(1, "collection members")?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(decode_geometry(r, depth + 1)?);
            }
            Geometry::Collection(members)
        }
        v => {
            return Err(PersistError::Malformed {
                what: "geometry tag",
                detail: format!("tag {v}"),
            })
        }
    })
}

fn decode_polygon(r: &mut Reader<'_>) -> Result<Polygon, PersistError> {
    let exterior = Ring {
        points: decode_points(r)?,
    };
    let n = r.count(4, "polygon holes")?;
    let mut holes = Vec::with_capacity(n);
    for _ in 0..n {
        holes.push(Ring {
            points: decode_points(r)?,
        });
    }
    Ok(Polygon { exterior, holes })
}

fn decode_points(r: &mut Reader<'_>) -> Result<Vec<Point>, PersistError> {
    let n = r.count(16, "points")?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(Point {
            x: r.f64("point")?,
            y: r.f64("point")?,
        });
    }
    Ok(points)
}

fn decode_shard_sets(
    r: &mut Reader<'_>,
    dataset_len: u64,
) -> Result<Vec<(usize, Arc<ShardSet>)>, PersistError> {
    let n = r.count(8 + 4, "shard sets")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let requested = r.usize("requested shard count")?;
        let shards = r.count(8 + 8 + 1 + 8, "shards")?;
        let mut rebuilt = Vec::with_capacity(shards);
        for _ in 0..shards {
            let start = r.usize("shard start")?;
            let end = r.usize("shard end")?;
            // A shard is a byte range the scan will slice out of the
            // dataset: it must stay inside the bytes it was built for.
            if start > end || end as u64 > dataset_len {
                return Err(PersistError::Malformed {
                    what: "shard range",
                    detail: format!("[{start}, {end}) of {dataset_len} bytes"),
                });
            }
            let mbr = if r.bool("shard mbr flag")? {
                Some(decode_mbr(r)?)
            } else {
                None
            };
            let features = r.u64("shard features")?;
            rebuilt.push(Shard {
                start,
                end,
                mbr,
                features,
            });
        }
        out.push((requested, Arc::new(ShardSet::from_shards(rebuilt))));
    }
    Ok(out)
}

fn decode_aggregates(r: &mut Reader<'_>) -> Result<Vec<(QueryKey, QueryResult)>, PersistError> {
    let n = r.count(1 + 1, "aggregates")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let key = decode_query_key(r)?;
        let result = decode_query_result(r)?;
        out.push((key, result));
    }
    Ok(out)
}

fn decode_query_key(r: &mut Reader<'_>) -> Result<QueryKey, PersistError> {
    Ok(match r.u8("query key tag")? {
        0 => QueryKey::Containment {
            region: decode_region_key(r)?,
        },
        1 => QueryKey::Aggregation {
            region: decode_region_key(r)?,
            want_area: r.bool("query key")?,
            want_perimeter: r.bool("query key")?,
            model: r.u8("query key")?,
            strategy: r.u8("query key")?,
        },
        2 => QueryKey::Join {
            threshold: r.u64("query key")?,
        },
        3 => QueryKey::Combined {
            threshold: r.u64("query key")?,
            min_perimeter: r.u64("query key")?,
            max_perimeter: r.u64("query key")?,
        },
        v => {
            return Err(PersistError::Malformed {
                what: "query key tag",
                detail: format!("tag {v}"),
            })
        }
    })
}

fn decode_region_key(r: &mut Reader<'_>) -> Result<RegionKey, PersistError> {
    let rings = r.count(4, "region rings")?;
    let mut out = Vec::with_capacity(rings);
    for _ in 0..rings {
        let n = r.count(16, "region points")?;
        let mut ring = Vec::with_capacity(n);
        for _ in 0..n {
            ring.push((r.u64("region point")?, r.u64("region point")?));
        }
        out.push(ring);
    }
    Ok(RegionKey(out))
}

fn decode_query_result(r: &mut Reader<'_>) -> Result<QueryResult, PersistError> {
    Ok(match r.u8("result tag")? {
        0 => {
            let n = r.count(8 + 8 + 4 + 32, "match records")?;
            let mut matches = Vec::with_capacity(n);
            for _ in 0..n {
                matches.push(MatchRecord {
                    id: r.u64("match")?,
                    offset: r.u64("match")?,
                    len: r.u32("match")?,
                    mbr: decode_mbr(r)?,
                });
            }
            QueryResult::Matches(matches)
        }
        1 => QueryResult::Aggregate(AggregateValues {
            count: r.u64("aggregate")?,
            total_area: r.f64("aggregate")?,
            total_perimeter: r.f64("aggregate")?,
        }),
        2 => {
            let n = r.count(32, "join pairs")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push(JoinPair {
                    left_id: r.u64("pair")?,
                    right_id: r.u64("pair")?,
                    left_offset: r.u64("pair")?,
                    right_offset: r.u64("pair")?,
                });
            }
            QueryResult::Joined(pairs)
        }
        3 => QueryResult::Combined {
            pairs: r.u64("combined")?,
            total_union_area: r.f64("combined")?,
        },
        v => {
            return Err(PersistError::Malformed {
                what: "result tag",
                detail: format!("tag {v}"),
            })
        }
    })
}

/// Byte offsets of the structural boundaries of an encoded snapshot:
/// the header end, then each section frame start and each payload
/// start/end. Torture tests truncate at exactly these offsets (plus
/// seeded interior positions) to hit every framing edge.
pub fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![HEADER_LEN.min(bytes.len())];
    let mut r = Reader::new(bytes);
    if r.raw(HEADER_LEN, "header").is_err() {
        return out;
    }
    let Ok(sections) = r.count(2 + 8 + 8, "sections") else {
        return out;
    };
    out.push(r.position());
    for _ in 0..sections {
        if r.u16("id").is_err() {
            break;
        }
        let Ok(len) = r.u64("len") else { break };
        if r.u64("checksum").is_err() {
            break;
        }
        out.push(r.position());
        if r.raw(len as usize, "payload").is_err() {
            break;
        }
        out.push(r.position());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_bounds_match_the_encoded_sizes() {
        let mut w = Writer::new();
        encode_part_entry(
            &mut w,
            &PartEntry {
                id: 1,
                offset: 2,
                len: 3,
                mbr: Mbr::new(0.0, 0.0, 1.0, 1.0),
            },
        );
        assert_eq!(w.bytes().len(), PART_ENTRY_LEN);

        // The smallest index entry a running engine can write: no
        // entries, no slots, no XML table.
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 1.0, 1.0), 1.0);
        let index = PartitionIndex {
            map: PartitionMap::build(&grid, Vec::new(), &AdaptiveConfig::default()),
            refine: Duration::ZERO,
            xml_table: None,
        };
        let key = IndexKey {
            cell_deg: 0,
            extent: [0; 4],
            adaptive: AdaptiveConfig::default(),
        };
        let payload = encode_indexes(&[(key, Arc::new(index))]);
        assert_eq!(payload.len(), 4 + MIN_INDEX_ENTRY_LEN);
        let decoded = decode_indexes(&mut Reader::new(&payload)).unwrap();
        assert_eq!(decoded.len(), 1);
        // One byte short of a whole entry: the count is rejected
        // before anything is allocated.
        let short = &payload[..payload.len() - 1];
        assert!(matches!(
            decode_indexes(&mut Reader::new(short)),
            Err(PersistError::Truncated {
                what: "index entries",
                ..
            })
        ));
    }

    /// A valid map: three entries in three slots of a 4 × 1 grid.
    fn valid_map() -> PartitionMap {
        let grid = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 1.0), 1.0);
        let scattered = (0..3u64)
            .map(|id| {
                let x = id as f64 + 0.25;
                let e = PartEntry {
                    id,
                    offset: id,
                    len: 1,
                    mbr: Mbr::new(x, 0.25, x + 0.5, 0.75),
                };
                (id as usize, e)
            })
            .collect();
        PartitionMap::build(&grid, scattered, &AdaptiveConfig::default())
    }

    /// Decodes a whole snapshot file holding `map` as its one index;
    /// `encode` computes every checksum, so only the map is wrong.
    fn round_trip(map: PartitionMap) -> Result<Snapshot, PersistError> {
        let index = PartitionIndex {
            map,
            refine: Duration::ZERO,
            xml_table: None,
        };
        let key = IndexKey {
            cell_deg: 1.0f64.to_bits(),
            extent: [0; 4],
            adaptive: AdaptiveConfig::default(),
        };
        decode(&encode(&Snapshot {
            generation: 1,
            dataset_len: 0,
            fingerprint: 0,
            indexes: vec![(key, Arc::new(index))],
            shard_sets: Vec::new(),
            aggregates: Vec::new(),
        }))
    }

    #[test]
    fn crafted_slot_ranges_and_chains_are_malformed() {
        assert_eq!(valid_map().slots.len(), 3);
        assert!(round_trip(valid_map()).is_ok());
        /// One way to break a valid map, named for the failure report.
        type Craft = (&'static str, fn(&mut PartitionMap));
        let crafts: [Craft; 9] = [
            ("range past the entries", |m| m.slots[2].range = 2..4),
            ("overlapping ranges", |m| m.slots[1].range = 0..2),
            ("a gap between ranges", |m| m.slots[1].range = 2..3),
            ("an empty range", |m| m.slots[1].range = 1..1),
            ("entries outside every range", |m| {
                m.slots.pop();
            }),
            ("an empty chain", |m| m.slots[0].chain.clear()),
            ("a base cell past the grid", |m| m.slots[0].chain[0].1 = 4),
            ("a sub-cell past its grid", |m| {
                let sub = GridSpec::new(Mbr::new(0.0, 0.0, 1.0, 1.0), 0.5);
                m.slots[0].chain.push((sub, 4));
            }),
            ("a first link off the map's grid", |m| {
                m.slots[0].chain[0].0 = GridSpec::new(Mbr::new(0.0, 0.0, 4.0, 1.0), 2.0);
            }),
        ];
        for (what, craft) in crafts {
            let mut map = valid_map();
            craft(&mut map);
            let decoded = round_trip(map);
            assert!(
                matches!(decoded, Err(PersistError::Malformed { .. })),
                "{what}: {decoded:?}"
            );
        }
        // A grid whose cell count overflows is malformed too.
        let mut map = valid_map();
        map.grid = GridSpec::new(Mbr::new(0.0, 0.0, 1e300, 1e300), 1e-300);
        assert!(matches!(
            round_trip(map),
            Err(PersistError::Malformed {
                what: "grid dimensions",
                ..
            })
        ));
    }
}
