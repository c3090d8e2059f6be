//! Intra-process sharded scatter–gather execution.
//!
//! A [`ShardSet`] partitions a dataset into N byte ranges ("shards")
//! cut at feature starts, each annotated with the MBR of the features it
//! contains. A batch over a shard set is the ordinary shared scan run
//! range by range (see [`crate::batch`]); an unsharded batch is the
//! same loop over one range, the whole file:
//!
//! 1. **Prune** — a single-pass query whose region's MBR is disjoint
//!    from a shard's MBR cannot match anything there, so it never
//!    scatters to that shard (join queries touch every shard: their
//!    pairs may span shards via the partition grid). A shard no query
//!    scatters to is never read.
//! 2. **Scatter** — every needed shard scans only its own byte range
//!    with the batch's one fan-out of per-query sinks. A query pruned
//!    from a shard still rides its scan, but absorbs nothing there.
//! 3. **Gather** — the shards' fan-outs fold with the same member-wise
//!    associative combine the parallel scan already uses
//!    ([`crate::pipeline::MultiSink`]).
//!
//! Because the underlying transducers are associative and aggregation
//! uses correctly-rounded [`crate::ExactSum`], the gathered result is
//! **bit-identical** to a single-node pass for every shard count — the
//! differential suite pins this across {1, 2, 4, 8}. A panic while
//! scanning one shard fails exactly the queries scattered to it; the
//! join stage runs once over the shared partition index, whatever the
//! shard count.
//!
//! Shard boundaries come from one bounding scan of the whole file with
//! the engine's own parser: the file is cut into N equal byte
//! buckets, and each shard starts at the first feature the parser
//! reported in its bucket ([`ShardSet::build`]). Every cut is thus a
//! real feature start — never a `{"type":"Feature"` byte pattern
//! inside some feature's `properties` — so no feature straddles a
//! shard and per-shard scans compose exactly in FAT mode, whose
//! parse of a range starts in the lexer's start state. PAT trusts
//! marker bytes by design, inside a shard as in a whole-file scan.
//! OSM XML is the exception: a way or relation needs the node table
//! of the whole document, so a byte range of XML cannot be parsed
//! alone and an XML dataset is one shard.

use crate::cancel::CancelToken;
use crate::dataset::Dataset;
use crate::engine::Engine;
use crate::pipeline::QueryAggregate;
use crate::query::{Query, ScanClass};
use crate::Result;
use atgis_formats::feature::{MetadataFilter, RawFeature};
use atgis_formats::Format;
use atgis_geometry::Mbr;

/// One shard: a half-open byte range of the dataset, cut at feature
/// starts, plus the bounding box of the features inside it.
#[derive(Debug, Clone)]
pub struct Shard {
    /// First byte of the shard's range.
    pub start: usize,
    /// One past the last byte of the shard's range.
    pub end: usize,
    /// MBR of every feature whose serialised form starts in the range
    /// (`None` when the shard holds no features — such a shard is
    /// pruned for every region query).
    pub mbr: Option<Mbr>,
    /// Features owned by the shard.
    pub features: u64,
}

impl Shard {
    /// Whether a query region could match inside this shard.
    fn may_intersect(&self, region: &Mbr) -> bool {
        self.mbr.as_ref().is_some_and(|m| m.intersects(region))
    }
}

/// A dataset's shard layout: byte ranges cut at feature starts, with
/// per-shard MBRs, built once (one extra bounding pass) and reused
/// across batches. [`crate::batch::QuerySession`] caches one per shard count.
#[derive(Debug, Clone)]
pub struct ShardSet {
    shards: Vec<Shard>,
}

/// One equal byte bucket of the bounding pass: the first feature
/// start in it, the union of its features' MBRs and their count.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    first: usize,
    mbr: Mbr,
    features: u64,
}

impl Bucket {
    fn merge(self, other: Bucket) -> Bucket {
        Bucket {
            first: self.first.min(other.first),
            mbr: self.mbr.union(&other.mbr),
            features: self.features + other.features,
        }
    }
}

/// The bounding pass: files every feature the parser reports under
/// the equal byte bucket its start falls in — an associative
/// aggregate (min, union, sum per bucket), so it rides the ordinary
/// parallel scan.
#[derive(Debug, Clone)]
struct LayoutProbe {
    len: u64,
    buckets: Vec<Option<Bucket>>,
}

impl QueryAggregate for LayoutProbe {
    fn absorb(&mut self, feature: &RawFeature) {
        let n = self.buckets.len();
        // Widened, so no offset × bucket count can overflow.
        let k = (u128::from(feature.offset) * n as u128 / u128::from(self.len)) as usize;
        let one = Bucket {
            first: feature.offset as usize,
            mbr: feature.mbr(),
            features: 1,
        };
        let slot = &mut self.buckets[k];
        *slot = Some(slot.map_or(one, |b| b.merge(one)));
    }

    fn combine(mut self, other: Self) -> Self {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a = match (*a, b) {
                (Some(x), Some(y)) => Some(x.merge(y)),
                (x, y) => x.or(y),
            };
        }
        self
    }
}

impl ShardSet {
    /// Splits `dataset` into at most `count` shards, bounded by one
    /// whole-file scan with the engine's own parser. The file is cut
    /// into `count` equal byte buckets; shard k runs from the first
    /// feature start of the k-th non-empty bucket to that of the next
    /// one (the first shard from byte 0, the last to the end), so
    /// every cut is a feature start the parser reported. Empty buckets
    /// yield no shard, and OSM XML is always one shard;
    /// [`ShardSet::len`] reports the actual count.
    pub fn build(
        engine: &Engine,
        dataset: &Dataset,
        count: usize,
        token: Option<&CancelToken>,
    ) -> Result<ShardSet> {
        let count = if dataset.format() == Format::OsmXml {
            1
        } else {
            count.max(1)
        };
        let len = dataset.len();
        let proto = LayoutProbe {
            len: len as u64,
            buckets: vec![None; count],
        };
        let (probe, _t) =
            engine.scan_range_cancellable(dataset, 0, len, &MetadataFilter::All, proto, token)?;
        let filled: Vec<Bucket> = probe.buckets.into_iter().flatten().collect();
        if filled.is_empty() {
            return Ok(ShardSet {
                shards: vec![Shard {
                    start: 0,
                    end: len,
                    mbr: None,
                    features: 0,
                }],
            });
        }
        let shards = filled
            .iter()
            .enumerate()
            .map(|(k, b)| Shard {
                start: if k == 0 { 0 } else { b.first },
                end: filled.get(k + 1).map_or(len, |next| next.first),
                mbr: Some(b.mbr),
                features: b.features,
            })
            .collect();
        Ok(ShardSet { shards })
    }

    /// Rebuilds a set from already-bounded shards (snapshot restore:
    /// the bounding pass was paid by the process that saved them).
    pub(crate) fn from_shards(shards: Vec<Shard>) -> ShardSet {
        ShardSet { shards }
    }

    /// Actual shard count (≤ the requested count).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set holds no shards (never true for a built set —
    /// even an empty dataset yields one empty shard).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard layout, in byte-range order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Which shards `query` must scatter to: `mask[s]` is `true` when
    /// shard `s` can contribute. Region queries prune by MBR
    /// intersection; join-class queries (whose pairs are formed in the
    /// partition grid, not per shard) scatter everywhere.
    pub fn scatter_mask(&self, query: &Query) -> Vec<bool> {
        match query {
            Query::Containment { region } | Query::Aggregation { region, .. } => {
                let qmbr = region.mbr();
                self.shards.iter().map(|s| s.may_intersect(&qmbr)).collect()
            }
            q => {
                debug_assert_eq!(q.scan_class(), ScanClass::Join);
                vec![true; self.shards.len()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wkt_dataset() -> Dataset {
        // Four rows in two spatial clusters: x∈[0,2] and x∈[100,102].
        let rows = "\
1\tPOLYGON((0.0 0.0,1.0 0.0,1.0 1.0,0.0 1.0,0.0 0.0))\t
2\tPOLYGON((1.0 1.0,2.0 1.0,2.0 2.0,1.0 2.0,1.0 1.0))\t
3\tPOLYGON((100.0 0.0,101.0 0.0,101.0 1.0,100.0 1.0,100.0 0.0))\t
4\tPOLYGON((101.0 1.0,102.0 1.0,102.0 2.0,101.0 2.0,101.0 1.0))\t
";
        Dataset::from_bytes(rows.as_bytes().to_vec(), Format::Wkt)
    }

    #[test]
    fn shards_cover_input_without_overlap() {
        let engine = Engine::builder().build();
        let dataset = wkt_dataset();
        let set = ShardSet::build(&engine, &dataset, 2, None).unwrap();
        assert!(!set.is_empty());
        assert_eq!(set.shards()[0].start, 0);
        assert_eq!(set.shards().last().unwrap().end, dataset.bytes().len());
        for w in set.shards().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let total: u64 = set.shards().iter().map(|s| s.features).sum();
        assert_eq!(total, 4, "every feature owned by exactly one shard");
    }

    #[test]
    fn disjoint_region_is_pruned_join_scatters_everywhere() {
        let engine = Engine::builder().build();
        let dataset = wkt_dataset();
        let set = ShardSet::build(&engine, &dataset, 4, None).unwrap();
        assert!(set.len() >= 2, "sample must split");

        // A region far from every feature scatters nowhere.
        let nowhere = Query::containment(Mbr::new(500.0, 500.0, 501.0, 501.0));
        assert!(set.scatter_mask(&nowhere).iter().all(|&m| !m));

        // A region covering only the first cluster prunes the shard
        // holding the second.
        let first_cluster = Query::containment(Mbr::new(-1.0, -1.0, 3.0, 3.0));
        let mask = set.scatter_mask(&first_cluster);
        assert!(mask[0], "first shard holds the matching cluster");
        assert!(
            mask.iter().any(|&m| !m),
            "the far cluster's shard must be pruned: {mask:?}"
        );

        // Joins always scatter everywhere.
        let join = Query::join(u64::MAX);
        assert!(set.scatter_mask(&join).iter().all(|&m| m));
    }
}
