//! Prepared query regions: the region of a containment or aggregation
//! query, set up once so that deciding each streamed feature against it
//! usually costs one MBR compare.
//!
//! The paper pushes the spatial filter into the scan (§4.4) and runs it
//! as filter-then-refine (§2.3). [`PreparedRegion`] is that filter with
//! the refine step paid only where the filter cannot decide, in the
//! manner of JTS/GEOS `PreparedGeometry`: it caches the region's
//! envelope, answers from the envelope when it can, and runs
//! [`crate::relate::intersects`] — allocation-free — only for features
//! whose MBR straddles the region's edge.

use crate::mbr::Mbr;
use crate::polygon::{Geometry, Polygon};
use crate::relate;

/// A query region prepared for many [`PreparedRegion::intersects`]
/// tests.
#[derive(Debug, Clone)]
pub struct PreparedRegion {
    /// The region polygon, as the geometry `relate` takes.
    region: Geometry,
    /// The polygon's MBR; [`Mbr::EMPTY`] when a vertex is not finite.
    mbr: Mbr,
    /// The polygon is `Polygon::from_mbr(&mbr)`, so it has no holes.
    is_rect: bool,
}

impl PreparedRegion {
    /// Prepares `polygon`. A polygon with a NaN or infinite vertex has
    /// no well-defined edges or interior, and matches nothing; this
    /// covers a region built from [`Mbr::EMPTY`] or from NaN bounds.
    pub fn new(polygon: Polygon) -> Self {
        let finite = polygon
            .exterior
            .points
            .iter()
            .chain(polygon.holes.iter().flat_map(|h| &h.points))
            .all(|p| p.x.is_finite() && p.y.is_finite());
        let mbr = if finite { polygon.mbr() } else { Mbr::EMPTY };
        let is_rect = finite && polygon == Polygon::from_mbr(&mbr);
        PreparedRegion {
            region: Geometry::Polygon(polygon),
            mbr,
            is_rect,
        }
    }

    /// True when `g` and the region share at least one point. `mbr`
    /// must be `g.mbr()`; the caller computes it once per feature.
    ///
    /// 1. *Outside*: an empty MBR, or one disjoint from the region's,
    ///    is `false` — exact for any polygon, and the first thing
    ///    [`crate::relate::intersects`] checks too.
    /// 2. *Inside*: for a rectangular region, an MBR inside its closed
    ///    box is `true`, since that closed set then holds the geometry.
    /// 3. *Straddles*: everything else takes `relate::intersects`
    ///    itself, with both MBRs already in hand; it allocates nothing
    ///    unless `g`'s collections nest.
    ///
    /// The answer is `relate::intersects`'s, given finite coordinates.
    pub fn intersects(&self, g: &Geometry, mbr: &Mbr) -> bool {
        if !mbr.intersects(&self.mbr) {
            return false;
        }
        if self.is_rect && self.mbr.contains(mbr) {
            return true;
        }
        relate::intersects_with_mbrs(g, mbr, &self.region, &self.mbr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::polygon::{LineString, MultiPolygon, Ring};
    use crate::relate;

    fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Polygon {
        Polygon::from_mbr(&Mbr::new(min_x, min_y, max_x, max_y))
    }

    fn check(region: &PreparedRegion, g: &Geometry) -> bool {
        let got = region.intersects(g, &g.mbr());
        let want = relate::intersects(g, &region.region);
        assert_eq!(got, want, "{g:?} against {:?}", region.region);
        got
    }

    #[test]
    fn rectangles_are_recognised() {
        assert!(PreparedRegion::new(rect(0.0, 0.0, 2.0, 1.0)).is_rect);
        assert!(
            PreparedRegion::new(rect(0.0, -1.0, 0.0, 1.0)).is_rect,
            "a line"
        );
        assert!(
            PreparedRegion::new(rect(3.0, 3.0, 3.0, 3.0)).is_rect,
            "a point"
        );
        // Same box, other start vertex: still exact, just not prepared
        // as a rectangle.
        let rotated = Polygon::from_exterior(vec![
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(0.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert!(!PreparedRegion::new(rotated).is_rect);
        let holed = Polygon::new(
            rect(0.0, 0.0, 4.0, 4.0).exterior,
            vec![rect(1.0, 1.0, 2.0, 2.0).exterior],
        );
        assert!(!PreparedRegion::new(holed).is_rect);
    }

    #[test]
    fn non_finite_regions_match_nothing() {
        let nan = f64::NAN;
        let everything = Geometry::Polygon(rect(-1e9, -1e9, 1e9, 1e9));
        for mbr in [
            Mbr::EMPTY,
            Mbr::new(nan, 0.0, 1.0, 1.0),
            Mbr::new(0.0, 0.0, 1.0, nan),
            Mbr::new(f64::NEG_INFINITY, 0.0, 1.0, 1.0),
        ] {
            let region = PreparedRegion::new(Polygon::from_mbr(&mbr));
            assert!(region.mbr.is_empty(), "{mbr:?}");
            assert!(!region.intersects(&everything, &everything.mbr()));
            let p = Geometry::Point(Point::new(1.0, 0.5));
            assert!(!region.intersects(&p, &p.mbr()));
        }
    }

    #[test]
    fn empty_features_never_match() {
        let region = PreparedRegion::new(rect(-1.0, -1.0, 1.0, 1.0));
        for g in [
            Geometry::Collection(vec![]),
            Geometry::MultiPolygon(MultiPolygon::new(vec![])),
            Geometry::LineString(LineString::new(vec![])),
        ] {
            assert!(!check(&region, &g), "{g:?}");
        }
    }

    #[test]
    fn concave_region_with_hole_agrees_with_relate() {
        // An L with a square hole in its foot.
        let region = PreparedRegion::new(Polygon::new(
            Ring::new(vec![
                Point::new(0.0, 0.0),
                Point::new(6.0, 0.0),
                Point::new(6.0, 2.0),
                Point::new(2.0, 2.0),
                Point::new(2.0, 6.0),
                Point::new(0.0, 6.0),
            ]),
            vec![rect(3.0, 0.5, 4.0, 1.5).exterior.normalised_cw()],
        ));
        assert!(!region.is_rect);
        let cases = [
            (rect(4.0, 4.0, 5.0, 5.0), false),     // in the L's notch
            (rect(3.25, 0.75, 3.75, 1.25), false), // in the hole
            (rect(3.0, 0.5, 3.5, 1.0), true),      // on the hole's corner
            (rect(0.5, 0.5, 1.0, 1.0), true),      // inside
            (rect(2.0, 2.0, 3.0, 3.0), true),      // touches the inner corner
            (rect(-1.0, -1.0, 7.0, 7.0), true),    // covers the region
        ];
        for (poly, want) in cases {
            assert_eq!(
                check(&region, &Geometry::Polygon(poly.clone())),
                want,
                "{poly:?}"
            );
        }
    }

    #[test]
    fn a_later_part_inside_the_region_matches() {
        // The region is a rectangle and an L; each feature's first part
        // lies far outside it and a later one inside, with no edge
        // contact, so only a probe of that later part can see it.
        for region in [
            PreparedRegion::new(rect(0.0, 0.0, 10.0, 10.0)),
            PreparedRegion::new(Polygon::from_exterior(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 4.0),
                Point::new(4.0, 4.0),
                Point::new(4.0, 10.0),
                Point::new(0.0, 10.0),
            ])),
        ] {
            let far = rect(20.0, 20.0, 21.0, 21.0);
            let inside = rect(1.0, 1.0, 2.0, 2.0);
            let features = [
                Geometry::MultiPolygon(MultiPolygon::new(vec![far.clone(), inside.clone()])),
                Geometry::Collection(vec![
                    Geometry::Point(Point::new(30.0, 30.0)),
                    Geometry::Collection(vec![
                        Geometry::Polygon(far.clone()),
                        Geometry::Polygon(inside.clone()),
                    ]),
                ]),
                Geometry::Collection(vec![
                    Geometry::Polygon(far.clone()),
                    Geometry::Point(Point::new(1.5, 1.5)),
                ]),
                Geometry::Collection(vec![
                    Geometry::LineString(LineString::new(vec![
                        Point::new(30.0, 0.0),
                        Point::new(31.0, 0.0),
                    ])),
                    Geometry::LineString(LineString::new(vec![
                        Point::new(1.0, 1.0),
                        Point::new(2.0, 3.0),
                    ])),
                ]),
            ];
            for g in &features {
                assert!(check(&region, g), "{g:?}");
            }
            // Parts in the L's notch and far away do not match.
            let notch = rect(6.0, 6.0, 7.0, 7.0);
            let outside = [
                Geometry::MultiPolygon(MultiPolygon::new(vec![far.clone(), notch.clone()])),
                Geometry::Collection(vec![
                    Geometry::Polygon(far.clone()),
                    Geometry::Collection(vec![Geometry::Polygon(notch.clone())]),
                ]),
            ];
            let want = region.is_rect;
            for g in &outside {
                assert_eq!(check(&region, g), want, "{g:?}");
            }
        }
    }
}
