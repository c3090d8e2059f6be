//! Simulated comparator systems for the Fig. 10 evaluation.
//!
//! The paper compares AT-GIS against PostGIS, MonetDB, a commercial
//! DBMS (DBMS-X), Hadoop-GIS and SpatialHadoop. None of those are
//! linkable from a Rust benchmark, so this crate implements
//! architectural stand-ins that preserve the *cost structure* each
//! system contributes to the comparison:
//!
//! * [`sequential`] — single-threaded raw-file scan: the no-parallelism
//!   floor every system must beat;
//! * [`indexed`] — an RDBMS-like engine (PostGIS / DBMS-X): pays an
//!   explicit **load + index** phase (parse everything, STR-bulk-load
//!   an R-tree), after which queries are index probes plus geometry
//!   refinement. Captures the data-to-query trade-off of §5.1;
//! * [`column_scan`] — a MonetDB-like engine: one parse pass
//!   materialises a bounding-box column; queries scan it sequentially
//!   (multi-threaded), optionally refining with full geometry (the
//!   paper's `-B` vs `-G` variants). Joins build the full candidate
//!   cross product in memory, reproducing MonetDB's failure mode;
//! * the Hadoop-like map/reduce comparator (`cluster_sim`) lives in
//!   the bench harness (`atgis-bench`), not here: it is a figure
//!   comparator only, never an oracle for correctness tests.
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as the oracle/baseline support crate of the four-layer design,
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod column_scan;
pub mod indexed;
pub mod sequential;

use atgis_formats::RawFeature;
use atgis_geometry::{relate, Geometry, Mbr, Polygon};

/// Shared query shapes evaluated by every baseline (mirrors Table 3).
#[derive(Debug, Clone)]
pub enum BaselineQuery {
    /// Count/collect geometries intersecting the region.
    Containment(Polygon),
    /// Sum area and perimeter of geometries intersecting the region.
    Aggregation(Polygon),
    /// Self-join at an id threshold.
    Join(u64),
}

impl BaselineQuery {
    /// Containment against a box.
    pub fn containment(region: Mbr) -> Self {
        BaselineQuery::Containment(Polygon::from_mbr(&region))
    }

    /// Aggregation against a box.
    pub fn aggregation(region: Mbr) -> Self {
        BaselineQuery::Aggregation(Polygon::from_mbr(&region))
    }
}

/// A baseline's answer, normalised for cross-system comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineAnswer {
    /// Matching object ids (sorted).
    Matches(Vec<u64>),
    /// `(count, total area, total perimeter)`.
    Aggregate(u64, f64, f64),
    /// Joined `(left id, right id)` pairs (sorted).
    Pairs(Vec<(u64, u64)>),
}

pub(crate) fn geometry_matches(g: &Geometry, region: &Polygon) -> bool {
    g.mbr().intersects(&region.mbr()) && relate::intersects(g, &Geometry::Polygon(region.clone()))
}

/// Whether every vertex of `region` is finite. A region with a NaN or
/// infinite vertex has no well-defined edges or interior and matches
/// nothing in every baseline, the engine's rule too
/// (`PreparedRegion::new`).
pub(crate) fn region_is_finite(region: &Polygon) -> bool {
    std::iter::once(&region.exterior)
        .chain(&region.holes)
        .flat_map(|ring| &ring.points)
        .all(|p| p.x.is_finite() && p.y.is_finite())
}

/// The features intersecting `region` (none when it is not finite).
fn matching<'a>(
    features: &'a [RawFeature],
    region: &'a Polygon,
) -> impl Iterator<Item = &'a RawFeature> {
    let finite = region_is_finite(region);
    features
        .iter()
        .filter(move |f| finite && geometry_matches(&f.geometry, region))
}

pub(crate) fn answer_containment(features: &[RawFeature], region: &Polygon) -> BaselineAnswer {
    let mut ids: Vec<u64> = matching(features, region).map(|f| f.id).collect();
    ids.sort_unstable();
    BaselineAnswer::Matches(ids)
}

pub(crate) fn answer_aggregation(features: &[RawFeature], region: &Polygon) -> BaselineAnswer {
    use atgis_geometry::{measures, DistanceModel};
    let mut count = 0;
    let mut area = 0.0;
    let mut perimeter = 0.0;
    for f in matching(features, region) {
        count += 1;
        area += measures::area(&f.geometry, DistanceModel::Spherical);
        perimeter += measures::perimeter(&f.geometry, DistanceModel::Spherical);
    }
    BaselineAnswer::Aggregate(count, area, perimeter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_geometry::Point;

    #[test]
    fn containment_answer_is_sorted() {
        let mk = |id, x| RawFeature {
            id,
            geometry: Geometry::Point(Point::new(x, 0.0)),
            offset: id,
            len: 1,
        };
        let features = vec![mk(3, 0.5), mk(1, 0.2), mk(2, 99.0)];
        let region = Polygon::from_mbr(&Mbr::new(0.0, -1.0, 1.0, 1.0));
        match answer_containment(&features, &region) {
            BaselineAnswer::Matches(ids) => assert_eq!(ids, vec![1, 3]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_finite_regions_match_nothing() {
        // A region with a NaN or infinite bound matches nothing, even
        // features on its finite edges.
        let mk = |id, x| RawFeature {
            id,
            geometry: Geometry::Point(Point::new(x, 0.0)),
            offset: id,
            len: 1,
        };
        let features = vec![mk(1, 0.0), mk(2, 0.5), mk(3, 1.0)];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let region = Polygon::from_mbr(&Mbr::new(0.0, -1.0, bad, 1.0));
            assert_eq!(
                answer_containment(&features, &region),
                BaselineAnswer::Matches(vec![]),
                "max_x = {bad}"
            );
            assert_eq!(
                answer_aggregation(&features, &region),
                BaselineAnswer::Aggregate(0, 0.0, 0.0),
                "max_x = {bad}"
            );
        }
    }
}
