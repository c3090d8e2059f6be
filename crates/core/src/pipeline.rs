//! Per-block query pipelines (Fig. 6): parse → transform/filter →
//! aggregate, composed per §3.2 by storing downstream aggregates on
//! the parse fragments' tapes.
//!
//! The [`QueryAggregate`] trait is the downstream transducer: it
//! absorbs features the moment a block (or a fragment merge) completes
//! them and combines associatively, so feature buffers never span the
//! whole input. FAT fragments carry one aggregate each: the lexer
//! state every block starts in is resolved before the block is parsed
//! (`atgis_formats::geojson::fat`), so no aggregate is kept per
//! speculated start state.

use crate::exact::ExactSum;
use crate::query::{FilterStrategy, Metric};
use crate::result::{AggregateValues, MatchRecord};
use atgis_formats::feature::RawFeature;
use atgis_formats::geojson::fat::{BlockScan, Ctx, Entry};
use atgis_formats::{Block, ParseError};
use atgis_geometry::{measures, DistanceModel, Geometry, Polygon, PreparedRegion};
use std::any::Any;
use std::sync::Arc;

/// The downstream (transform + aggregation) stages of a single-pass
/// pipeline, as an associative aggregate over completed features.
pub trait QueryAggregate: Send + Sync + Clone {
    /// Folds one completed feature in.
    fn absorb(&mut self, feature: &RawFeature);
    /// Associative combination (self covers earlier input).
    fn combine(self, other: Self) -> Self;
}

/// Object-safe view of a [`QueryAggregate`], so aggregates of
/// *different* concrete types can ride one scan together (the
/// shared-scan batch fan-out). Implemented for every
/// `QueryAggregate + 'static` via the blanket impl below; positionally
/// paired sinks must be the same concrete type — [`MultiSink`]
/// guarantees this by always combining position `i` with position `i`.
pub trait AggregateSink: Send + Sync {
    /// Folds one completed feature in.
    fn absorb_feature(&mut self, feature: &RawFeature);
    /// Associative combination with a sink of the same concrete type.
    fn combine_sink(self: Box<Self>, other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink>;
    /// Deep clone (fragment prototypes are cloned per block).
    fn clone_sink(&self) -> Box<dyn AggregateSink>;
    /// Downcast support for result extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// The panic message when this sink is the tombstone a panicked
    /// [`MultiSink`] member was replaced with; `None` for live sinks.
    /// Extraction code must check this before downcasting.
    fn panic_message(&self) -> Option<&str> {
        None
    }
}

impl<A: QueryAggregate + 'static> AggregateSink for A {
    fn absorb_feature(&mut self, feature: &RawFeature) {
        self.absorb(feature);
    }

    fn combine_sink(self: Box<Self>, other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink> {
        let other = other
            .into_any()
            .downcast::<A>()
            .expect("combined sinks share one concrete type per position");
        Box::new((*self).combine(*other))
    }

    fn clone_sink(&self) -> Box<dyn AggregateSink> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Takes a finished sink back to its concrete aggregate type.
pub fn downcast_sink<A: 'static>(sink: Box<dyn AggregateSink>) -> A {
    *sink
        .into_any()
        .downcast::<A>()
        .expect("sink extraction requested the wrong aggregate type")
}

/// Tombstone for a [`MultiSink`] member whose aggregate panicked
/// mid-scan: it absorbs nothing, combines to itself (failure is
/// sticky, the earliest message wins), and reports the panic via
/// [`AggregateSink::panic_message`]. This is how a panic in one
/// query's sink fails only that query — the scan, its batch mates and
/// the worker pool all complete normally.
pub(crate) struct FailedSink {
    message: String,
}

impl FailedSink {
    /// A tombstone carrying the panic payload of the member it
    /// replaced (minted in `MultiSink` when a member sink panics, and
    /// by the batch range scan for the members a panicked range
    /// carried).
    pub(crate) fn new(message: impl Into<String>) -> Self {
        FailedSink {
            message: message.into(),
        }
    }
}

impl AggregateSink for FailedSink {
    fn absorb_feature(&mut self, _feature: &RawFeature) {}

    fn combine_sink(self: Box<Self>, _other: Box<dyn AggregateSink>) -> Box<dyn AggregateSink> {
        self
    }

    fn clone_sink(&self) -> Box<dyn AggregateSink> {
        Box::new(FailedSink {
            message: self.message.clone(),
        })
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn panic_message(&self) -> Option<&str> {
        Some(&self.message)
    }
}

/// The multi-sink fan-out of the shared-scan batch layer: one
/// aggregate that dispatches every completed feature to N per-query
/// member sinks and combines member-wise. Because it implements
/// [`QueryAggregate`], it flows through every existing execution path
/// unchanged — marker-aligned block scans, the FAT fragments
/// ([`FatGeoJsonFrag`]) and the parallel tree merge —
/// so one parse pass serves every member query.
///
/// Member order is the fan-out contract: `combine` zips positionally,
/// so member `i` sees exactly the absorb/combine sequence it would
/// have seen running alone. Results are therefore bit-identical to
/// per-query execution.
pub struct MultiSink {
    sinks: Vec<Box<dyn AggregateSink>>,
}

impl MultiSink {
    /// Builds the fan-out over per-query prototype sinks.
    pub fn new(sinks: Vec<Box<dyn AggregateSink>>) -> Self {
        MultiSink { sinks }
    }

    /// Number of member sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no queries ride this scan.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Surrenders the member sinks, in construction order, for
    /// per-query result extraction.
    pub fn into_sinks(self) -> Vec<Box<dyn AggregateSink>> {
        self.sinks
    }
}

impl Clone for MultiSink {
    fn clone(&self) -> Self {
        MultiSink {
            sinks: self.sinks.iter().map(|s| s.clone_sink()).collect(),
        }
    }
}

impl QueryAggregate for MultiSink {
    fn absorb(&mut self, feature: &RawFeature) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for sink in &mut self.sinks {
            // Member-level failure domain: a panicking member becomes
            // a FailedSink tombstone and the scan keeps feeding its
            // batch mates. AssertUnwindSafe is sound because the
            // half-mutated member is replaced, never observed again.
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| sink.absorb_feature(feature))) {
                *sink = Box::new(FailedSink {
                    message: crate::pool::panic_message(&*p),
                });
            }
        }
    }

    fn combine(self, other: Self) -> Self {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        debug_assert_eq!(
            self.sinks.len(),
            other.sinks.len(),
            "fan-out width is fixed for one scan"
        );
        MultiSink {
            sinks: self
                .sinks
                .into_iter()
                .zip(other.sinks)
                .map(|(a, b)| {
                    // Sticky failure, earliest (document-order) side
                    // wins — checked up front so a live sink never
                    // tries to downcast a tombstone.
                    if a.panic_message().is_some() {
                        return a;
                    }
                    if b.panic_message().is_some() {
                        return b;
                    }
                    match catch_unwind(AssertUnwindSafe(|| a.combine_sink(b))) {
                        Ok(s) => s,
                        Err(p) => Box::new(FailedSink {
                            message: crate::pool::panic_message(&*p),
                        }),
                    }
                })
                .collect(),
        }
    }
}

/// Containment-query aggregate: buffers matching records (§4.4: "it
/// is also used for containment queries to store the output of the
/// transformation stage").
///
/// The region is prepared once, here, and shared by every per-block
/// clone. Each feature's MBR is computed once and classified against
/// it (§2.3's filter-refine): outside the region's MBR it is dropped,
/// inside a rectangular region it matches, and only a feature whose
/// MBR straddles the region's edge runs the exact edge test
/// ([`PreparedRegion::intersects`]).
#[derive(Debug, Clone)]
pub struct ContainmentAgg {
    region: Arc<PreparedRegion>,
    /// Matches found so far.
    pub matches: Vec<MatchRecord>,
}

impl ContainmentAgg {
    /// Creates the aggregate for a reference region.
    pub fn new(region: Arc<Polygon>) -> Self {
        ContainmentAgg {
            region: Arc::new(PreparedRegion::new(Arc::unwrap_or_clone(region))),
            matches: Vec::new(),
        }
    }
}

impl QueryAggregate for ContainmentAgg {
    fn absorb(&mut self, f: &RawFeature) {
        let mbr = f.geometry.mbr();
        if self.region.intersects(&f.geometry, &mbr) {
            self.matches.push(MatchRecord {
                id: f.id,
                offset: f.offset,
                len: f.len,
                mbr,
            });
        }
    }

    fn combine(mut self, mut other: Self) -> Self {
        self.matches.append(&mut other.matches);
        self
    }
}

/// Aggregation-query aggregate: containment test plus numeric
/// summarisation, with the streaming/buffered trade-off of Fig. 7.
///
/// The containment test is [`ContainmentAgg`]'s: a region prepared
/// once, each feature's MBR computed once and classified against it,
/// and the exact edge test only for features whose MBR straddles the
/// region's edge.
///
/// Sums accumulate in [`ExactSum`]s, so the reported values are the
/// correctly-rounded true sums — identical bits no matter how the scan
/// was chunked, blocked or threaded. That invariance is what lets the
/// streaming execution path promise results bit-identical to the
/// buffered path.
#[derive(Debug, Clone)]
pub struct MetricsAgg {
    region: Arc<PreparedRegion>,
    model: DistanceModel,
    strategy: FilterStrategy,
    want_area: bool,
    want_perimeter: bool,
    count: u64,
    area: ExactSum,
    perimeter: ExactSum,
}

impl MetricsAgg {
    /// Creates the aggregate.
    pub fn new(
        region: Arc<Polygon>,
        metrics: &[Metric],
        model: DistanceModel,
        strategy: FilterStrategy,
    ) -> Self {
        MetricsAgg {
            region: Arc::new(PreparedRegion::new(Arc::unwrap_or_clone(region))),
            model,
            strategy,
            want_area: metrics.contains(&Metric::Area),
            want_perimeter: metrics.contains(&Metric::Perimeter),
            count: 0,
            area: ExactSum::new(),
            perimeter: ExactSum::new(),
        }
    }

    /// The aggregated values (sums correctly rounded).
    pub fn values(&self) -> AggregateValues {
        AggregateValues {
            count: self.count,
            total_area: self.area.value(),
            total_perimeter: self.perimeter.value(),
        }
    }

    fn passes(&self, f: &RawFeature) -> bool {
        self.region.intersects(&f.geometry, &f.geometry.mbr())
    }
}

impl QueryAggregate for MetricsAgg {
    fn absorb(&mut self, f: &RawFeature) {
        match self.strategy {
            FilterStrategy::Streaming => {
                // Compute the metrics unconditionally, concurrent with
                // the test; discard on failure (Fig. 7b).
                let area = if self.want_area {
                    measures::area(&f.geometry, self.model)
                } else {
                    0.0
                };
                let perimeter = if self.want_perimeter {
                    measures::perimeter(&f.geometry, self.model)
                } else {
                    0.0
                };
                if self.passes(f) {
                    self.count += 1;
                    self.area.add(area);
                    self.perimeter.add(perimeter);
                }
            }
            FilterStrategy::Buffered | FilterStrategy::Auto => {
                // Buffer the geometry until the filter decides, then
                // compute metrics from the buffered copy (Fig. 7a).
                // The copy is the buffering overhead the paper weighs
                // against streaming's redundant computation; `Auto`
                // resolution happens in the engine, here it behaves as
                // buffered.
                if self.passes(f) {
                    let buffered: Geometry = f.geometry.clone();
                    self.count += 1;
                    if self.want_area {
                        self.area.add(measures::area(&buffered, self.model));
                    }
                    if self.want_perimeter {
                        self.perimeter
                            .add(measures::perimeter(&buffered, self.model));
                    }
                }
            }
        }
    }

    fn combine(mut self, other: Self) -> Self {
        self.count += other.count;
        self.area.merge(&other.area);
        self.perimeter.merge(&other.perimeter);
        self
    }
}

/// The FAT GeoJSON pipeline fragment: the known-state parse fragment
/// of a block run composed with its one downstream aggregate (the
/// block's entry state is resolved before it is parsed, so there is a
/// single chain).
pub struct FatGeoJsonFrag<A: QueryAggregate> {
    parse: BlockScan,
    agg: A,
}

impl<A: QueryAggregate> FatGeoJsonFrag<A> {
    /// Parses one block from its resolved `entry` and aggregates the
    /// features it owns.
    pub fn process(cx: &Ctx<'_>, block: Block, entry: Entry, proto: &A) -> Self {
        let mut agg = proto.clone();
        let parse = BlockScan::run(cx, block, entry, &mut |f| agg.absorb(&f));
        FatGeoJsonFrag { parse, agg }
    }

    /// Fragment merge: link the parse fragments, absorb the features
    /// the merge completes, then combine the aggregates.
    pub fn merge(self, other: Self, cx: &Ctx<'_>) -> Result<Self, ParseError> {
        let mut agg = self.agg;
        let (parse, took_right) = self.parse.merge(other.parse, cx, &mut |f| agg.absorb(&f))?;
        if took_right {
            agg = agg.combine(other.agg);
        }
        Ok(FatGeoJsonFrag { parse, agg })
    }

    /// Finishes the pipeline against the complete input.
    pub fn finalize(self, cx: &Ctx<'_>) -> Result<A, ParseError> {
        let mut agg = self.agg;
        self.parse.finish(cx, &mut |f| agg.absorb(&f))?;
        Ok(agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_formats::fixed_blocks;
    use atgis_formats::geojson::fat;
    use atgis_formats::MetadataFilter;
    use atgis_geometry::Mbr;

    fn region() -> Arc<Polygon> {
        Arc::new(Polygon::from_mbr(&Mbr::new(-0.5, -0.5, 0.5, 0.5)))
    }

    fn feature(id: u64, x: f64, y: f64) -> RawFeature {
        RawFeature {
            id,
            geometry: Geometry::Point(atgis_geometry::Point::new(x, y)),
            offset: id * 100,
            len: 50,
        }
    }

    #[test]
    fn containment_agg_filters_by_region() {
        let mut agg = ContainmentAgg::new(region());
        agg.absorb(&feature(1, 0.0, 0.0)); // inside
        agg.absorb(&feature(2, 5.0, 5.0)); // outside
        agg.absorb(&feature(3, 0.5, 0.5)); // on boundary
        assert_eq!(agg.matches.len(), 2);
        assert_eq!(agg.matches[0].id, 1);
    }

    #[test]
    fn containment_combine_preserves_order() {
        let mut a = ContainmentAgg::new(region());
        a.absorb(&feature(1, 0.0, 0.0));
        let mut b = ContainmentAgg::new(region());
        b.absorb(&feature(2, 0.1, 0.1));
        let c = a.combine(b);
        assert_eq!(c.matches.iter().map(|m| m.id).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn metrics_agg_streaming_equals_buffered() {
        let square = RawFeature {
            id: 1,
            geometry: Geometry::Polygon(atgis_geometry::polygon::unit_square()),
            offset: 0,
            len: 10,
        };
        let outside = RawFeature {
            id: 2,
            geometry: Geometry::Polygon(Polygon::from_mbr(&Mbr::new(10.0, 10.0, 11.0, 11.0))),
            offset: 100,
            len: 10,
        };
        let reg = Arc::new(Polygon::from_mbr(&Mbr::new(-1.0, -1.0, 2.0, 2.0)));
        let metrics = [Metric::Area, Metric::Perimeter, Metric::Count];
        let mut streaming = MetricsAgg::new(
            reg.clone(),
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Streaming,
        );
        let mut buffered = MetricsAgg::new(
            reg,
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Buffered,
        );
        for f in [&square, &outside] {
            streaming.absorb(f);
            buffered.absorb(f);
        }
        assert_eq!(streaming.values(), buffered.values());
        assert_eq!(streaming.values().count, 1);
        assert_eq!(streaming.values().total_area, 1.0);
        assert_eq!(streaming.values().total_perimeter, 4.0);
    }

    #[test]
    fn multi_sink_members_match_solo_runs() {
        let reg = region();
        let metrics = [Metric::Area, Metric::Perimeter, Metric::Count];
        let features: Vec<RawFeature> = (0..20)
            .map(|i| feature(i, (i as f64) * 0.07 - 0.5, 0.0))
            .collect();

        // Solo runs.
        let mut solo_c = ContainmentAgg::new(reg.clone());
        let mut solo_m = MetricsAgg::new(
            reg.clone(),
            &metrics,
            DistanceModel::Planar,
            FilterStrategy::Streaming,
        );
        for f in &features {
            solo_c.absorb(f);
            solo_m.absorb(f);
        }

        // The same queries riding one fan-out, split over two halves
        // combined associatively (as a two-block scan would).
        let proto = MultiSink::new(vec![
            Box::new(ContainmentAgg::new(reg.clone())),
            Box::new(MetricsAgg::new(
                reg,
                &metrics,
                DistanceModel::Planar,
                FilterStrategy::Streaming,
            )),
        ]);
        let mut left = proto.clone();
        let mut right = proto.clone();
        for f in &features[..9] {
            left.absorb(f);
        }
        for f in &features[9..] {
            right.absorb(f);
        }
        let merged = left.combine(right);
        let mut sinks = merged.into_sinks().into_iter();
        let c: ContainmentAgg = downcast_sink(sinks.next().unwrap());
        let m: MetricsAgg = downcast_sink(sinks.next().unwrap());
        assert_eq!(c.matches, solo_c.matches);
        assert_eq!(m.values(), solo_m.values());
    }

    #[test]
    fn multi_sink_clone_is_deep() {
        let proto = MultiSink::new(vec![Box::new(ContainmentAgg::new(region()))]);
        let mut a = proto.clone();
        a.absorb(&feature(1, 0.0, 0.0));
        let b = proto.clone();
        let a_c: ContainmentAgg = downcast_sink(a.into_sinks().pop().unwrap());
        let b_c: ContainmentAgg = downcast_sink(b.into_sinks().pop().unwrap());
        assert_eq!(a_c.matches.len(), 1);
        assert!(b_c.matches.is_empty(), "prototype must stay untouched");
    }

    /// Aggregate that panics on a specific feature id — the fault
    /// model for member-isolation tests.
    #[derive(Clone)]
    struct BombAgg {
        bomb_id: u64,
        seen: u64,
    }

    impl QueryAggregate for BombAgg {
        fn absorb(&mut self, f: &RawFeature) {
            assert!(f.id != self.bomb_id, "sink bomb");
            self.seen += 1;
        }

        fn combine(mut self, other: Self) -> Self {
            self.seen += other.seen;
            self
        }
    }

    #[test]
    fn panicking_member_fails_alone_and_batch_mates_survive() {
        let mut multi = MultiSink::new(vec![
            Box::new(ContainmentAgg::new(region())),
            Box::new(BombAgg {
                bomb_id: 1,
                seen: 0,
            }),
            Box::new(ContainmentAgg::new(region())),
        ]);
        for i in 0..5 {
            multi.absorb(&feature(i, 0.0, 0.0));
        }
        let sinks = multi.into_sinks();
        assert!(sinks[0].panic_message().is_none());
        let msg = sinks[2].panic_message();
        assert!(sinks[1]
            .panic_message()
            .expect("bombed")
            .contains("sink bomb"));
        assert!(msg.is_none());
        let healthy: ContainmentAgg = downcast_sink(sinks.into_iter().next().unwrap());
        assert_eq!(healthy.matches.len(), 5, "batch mates saw every feature");
    }

    #[test]
    fn failure_is_sticky_across_combines() {
        let proto = MultiSink::new(vec![Box::new(BombAgg {
            bomb_id: 7,
            seen: 0,
        })]);
        let mut left = proto.clone();
        let mut right = proto.clone();
        left.absorb(&feature(7, 0.0, 0.0)); // bombs the left member
        right.absorb(&feature(8, 0.0, 0.0));
        let merged = left.combine(right);
        let sinks = merged.into_sinks();
        assert!(
            sinks[0]
                .panic_message()
                .expect("sticky")
                .contains("sink bomb"),
            "a failed member stays failed through combine"
        );
    }

    #[test]
    fn fat_geojson_pipeline_matches_direct_parse() {
        let ds = atgis_datagen::OsmGenerator::new(77).generate(60);
        let input = atgis_datagen::write_geojson(&ds);
        let filter = MetadataFilter::All;
        let reg = Arc::new(Polygon::from_mbr(&Mbr::new(-180.0, -90.0, 180.0, 90.0)));
        let proto = ContainmentAgg::new(reg);
        let cx = Ctx {
            input: &input,
            depth: fat::feature_depth(&input, 0, input.len()).unwrap(),
            filter: &filter,
            complete: true,
        };

        for n in [1, 3, 9] {
            let blocks = fixed_blocks(input.len(), n);
            let maps: Vec<_> = blocks
                .iter()
                .map(|b| fat::StateMap::of(b.slice(&input)))
                .collect();
            let entries = fat::entries(&maps, Entry::START);
            let mut merged: Option<FatGeoJsonFrag<ContainmentAgg>> = None;
            for (&b, &entry) in blocks.iter().zip(&entries) {
                let f = FatGeoJsonFrag::process(&cx, b, entry, &proto);
                merged = Some(match merged {
                    None => f,
                    Some(acc) => acc.merge(f, &cx).unwrap(),
                });
            }
            let agg = merged.unwrap().finalize(&cx).unwrap();
            assert_eq!(agg.matches.len(), 60, "blocks={n}");
        }
    }

    // ---- traps a region predicate decided from the MBR could open ----

    fn geometry_feature(id: u64, geometry: Geometry) -> RawFeature {
        RawFeature {
            id,
            geometry,
            offset: id * 100,
            len: 50,
        }
    }

    fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Geometry {
        Geometry::Polygon(Polygon::from_mbr(&Mbr::new(min_x, min_y, max_x, max_y)))
    }

    fn line(points: &[(f64, f64)]) -> Geometry {
        Geometry::LineString(atgis_geometry::LineString::new(
            points
                .iter()
                .map(|&(x, y)| atgis_geometry::Point::new(x, y))
                .collect(),
        ))
    }

    /// Ids of `features` both region sinks accept; panics if the
    /// containment and aggregation sinks disagree.
    fn accepted(region: Polygon, features: &[RawFeature]) -> Vec<u64> {
        let region = Arc::new(region);
        let mut c = ContainmentAgg::new(region.clone());
        let mut m = MetricsAgg::new(
            region,
            &[Metric::Count],
            DistanceModel::Planar,
            FilterStrategy::Streaming,
        );
        for f in features {
            c.absorb(f);
            m.absorb(f);
        }
        assert_eq!(m.values().count as usize, c.matches.len(), "sinks disagree");
        c.matches.iter().map(|r| r.id).collect()
    }

    #[test]
    fn empty_geometries_never_match() {
        use atgis_geometry::MultiPolygon;
        let empties = [
            geometry_feature(1, Geometry::Collection(vec![])),
            geometry_feature(2, Geometry::MultiPolygon(MultiPolygon::new(vec![]))),
            geometry_feature(3, Geometry::Collection(vec![Geometry::Collection(vec![])])),
        ];
        for region in [
            Mbr::new(-0.5, -0.5, 0.5, 0.5),
            Mbr::new(-180.0, -90.0, 180.0, 90.0),
        ] {
            assert!(accepted(Polygon::from_mbr(&region), &empties).is_empty());
        }
    }

    #[test]
    fn empty_and_nan_regions_match_nothing() {
        let features = [
            feature(1, 0.0, 0.0),
            feature(2, 1.0, 1.0),
            geometry_feature(3, rect(-1e9, -1e9, 1e9, 1e9)),
            geometry_feature(4, rect(-2.0, -2.0, 2.0, 2.0)),
            geometry_feature(5, line(&[(-5.0, 0.5), (5.0, 0.5)])),
        ];
        let nan = f64::NAN;
        for region in [
            Mbr::EMPTY,
            Mbr::new(nan, 0.0, 1.0, 1.0),
            Mbr::new(0.0, nan, 1.0, 1.0),
            Mbr::new(0.0, 0.0, nan, 1.0),
            Mbr::new(0.0, 0.0, 1.0, nan),
            Mbr::new(nan, nan, nan, nan),
        ] {
            assert!(
                accepted(Polygon::from_mbr(&region), &features).is_empty(),
                "{region:?}"
            );
        }
    }

    #[test]
    fn edge_and_corner_contact_matches() {
        let features = [
            // Shares the region's east edge from outside.
            geometry_feature(1, rect(0.5, -0.2, 1.5, 0.2)),
            // Touches the north-east corner only.
            geometry_feature(2, rect(0.5, 0.5, 1.0, 1.0)),
            // A line ending on the south-west corner.
            geometry_feature(3, line(&[(-2.0, -2.0), (-0.5, -0.5)])),
            // A line grazing the north edge.
            geometry_feature(4, line(&[(-2.0, 0.5), (2.0, 0.5)])),
            // Just clear of the corner: no contact.
            geometry_feature(5, rect(0.5 + 1e-9, 0.5 + 1e-9, 1.0, 1.0)),
        ];
        let region = Polygon::from_mbr(&Mbr::new(-0.5, -0.5, 0.5, 0.5));
        assert_eq!(accepted(region, &features), [1, 2, 3, 4]);
    }

    #[test]
    fn boundary_points_and_line_regions_match() {
        let points = [
            feature(1, 0.5, 0.0),   // east edge
            feature(2, -0.5, -0.5), // corner
            feature(3, 0.0, 0.5),   // north edge
            feature(4, 0.5 + 1e-12, 0.0),
        ];
        let square = Polygon::from_mbr(&Mbr::new(-0.5, -0.5, 0.5, 0.5));
        assert_eq!(accepted(square, &points), [1, 2, 3]);

        // A zero-width region is the segment x = 0, -1 ≤ y ≤ 1.
        let segment = Polygon::from_mbr(&Mbr::new(0.0, -1.0, 0.0, 1.0));
        let features = [
            feature(1, 0.0, 0.25),
            feature(2, 0.25, 0.0),
            geometry_feature(3, rect(-1.0, -0.5, 1.0, 0.5)),
            geometry_feature(4, line(&[(-1.0, 0.0), (1.0, 0.0)])),
            geometry_feature(5, rect(0.1, -0.5, 1.0, 0.5)),
            geometry_feature(6, rect(-1.0, 1.0, 0.0, 2.0)),
        ];
        assert_eq!(accepted(segment, &features), [1, 3, 4, 6]);
    }
}
