//! Property tests for `atgis_geometry::relate::intersects`, checked
//! against an independently written brute-force reference: orientation
//! tests for every segment pair plus a crossing-number
//! point-in-polygon probe for containment. The library implementation
//! (edge tests + §3.4 two-way interior probes) must agree on random
//! small polygons, be symmetric, and never report an intersection
//! without MBR overlap. It must also distribute over the parts of a
//! collection or multipolygon: the whole meets `b` exactly when some
//! part does, which holds whatever order the parts come in.

use atgis_geometry::relate::{disjoint, intersects, within};
use atgis_geometry::{Geometry, MultiPolygon, Point, Polygon};
use proptest::prelude::*;

/// A small convex polygon: `n` vertices on a circle of radius `r`
/// around `(cx, cy)`, rotated by `phase`.
fn poly(cx: f64, cy: f64, r: f64, n: usize, phase: f64) -> Polygon {
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let theta = phase + std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(cx + r * theta.cos(), cy + r * theta.sin())
        })
        .collect();
    Polygon::from_exterior(pts)
}

// ---- independent reference implementation -------------------------

fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

fn on_segment(a: Point, b: Point, p: Point) -> bool {
    orient(a, b, p) == 0.0
        && p.x >= a.x.min(b.x)
        && p.x <= a.x.max(b.x)
        && p.y >= a.y.min(b.y)
        && p.y <= a.y.max(b.y)
}

/// Classic orientation-based segment intersection (with collinear
/// overlap handling) — written independently of
/// `atgis_geometry::segment`.
fn segs_intersect_brute(p1: Point, p2: Point, p3: Point, p4: Point) -> bool {
    let d1 = orient(p3, p4, p1);
    let d2 = orient(p3, p4, p2);
    let d3 = orient(p1, p2, p3);
    let d4 = orient(p1, p2, p4);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    on_segment(p3, p4, p1)
        || on_segment(p3, p4, p2)
        || on_segment(p1, p2, p3)
        || on_segment(p1, p2, p4)
}

/// Crossing-number point-in-polygon (boundary counts as inside via an
/// explicit on-segment check).
fn point_in_poly_brute(p: Point, poly: &Polygon) -> bool {
    let pts = &poly.exterior.points;
    let n = pts.len();
    for i in 0..n {
        if on_segment(pts[i], pts[(i + 1) % n], p) {
            return true;
        }
    }
    let mut inside = false;
    for i in 0..n {
        let (a, b) = (pts[i], pts[(i + 1) % n]);
        if (a.y > p.y) != (b.y > p.y) {
            let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_at {
                inside = !inside;
            }
        }
    }
    inside
}

fn edges(p: &Polygon) -> Vec<(Point, Point)> {
    let pts = &p.exterior.points;
    (0..pts.len())
        .map(|i| (pts[i], pts[(i + 1) % pts.len()]))
        .collect()
}

/// Brute-force polygon intersection: any segment pair crosses, or one
/// polygon's vertex lies in the other (covers full containment for
/// these convex star-shaped polygons).
fn intersects_brute(a: &Polygon, b: &Polygon) -> bool {
    for (a1, a2) in edges(a) {
        for (b1, b2) in edges(b) {
            if segs_intersect_brute(a1, a2, b1, b2) {
                return true;
            }
        }
    }
    a.exterior.points.iter().any(|p| point_in_poly_brute(*p, b))
        || b.exterior.points.iter().any(|p| point_in_poly_brute(*p, a))
}

/// A part of a multi-part geometry: mostly a small polygon, now and
/// then a point, anywhere in a box wider than the other side's.
fn part() -> impl Strategy<Value = Geometry> {
    (
        -6.0..6.0f64,
        -6.0..6.0f64,
        0.05..2.0f64,
        3usize..8,
        0.0..1.0f64,
        0usize..4,
    )
        .prop_map(|(x, y, r, n, phase, kind)| match kind {
            0 => Geometry::Point(Point::new(x, y)),
            _ => Geometry::Polygon(poly(x, y, r, n, phase)),
        })
}

fn polygon_of(g: &Geometry) -> Option<Polygon> {
    match g {
        Geometry::Polygon(p) => Some(p.clone()),
        _ => None,
    }
}

// ---- properties ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn intersects_is_symmetric(
        ax in -5.0..5.0f64, ay in -5.0..5.0f64, ar in 0.1..3.0f64,
        an in 3usize..9, ap in 0.0..1.0f64,
        bx in -5.0..5.0f64, by in -5.0..5.0f64, br in 0.1..3.0f64,
        bn in 3usize..9, bp in 0.0..1.0f64,
    ) {
        let a = Geometry::Polygon(poly(ax, ay, ar, an, ap));
        let b = Geometry::Polygon(poly(bx, by, br, bn, bp));
        prop_assert_eq!(intersects(&a, &b), intersects(&b, &a));
        prop_assert_eq!(disjoint(&a, &b), !intersects(&a, &b));
    }

    #[test]
    fn intersects_implies_mbr_overlap(
        ax in -5.0..5.0f64, ay in -5.0..5.0f64, ar in 0.1..3.0f64,
        an in 3usize..9,
        bx in -5.0..5.0f64, by in -5.0..5.0f64, br in 0.1..3.0f64,
        bn in 3usize..9,
    ) {
        let a = Geometry::Polygon(poly(ax, ay, ar, an, 0.0));
        let b = Geometry::Polygon(poly(bx, by, br, bn, 0.5));
        if intersects(&a, &b) {
            prop_assert!(a.mbr().intersects(&b.mbr()),
                "intersection without MBR overlap: {:?} {:?}", a.mbr(), b.mbr());
        }
    }

    #[test]
    fn intersects_agrees_with_brute_force(
        ax in -3.0..3.0f64, ay in -3.0..3.0f64, ar in 0.1..2.5f64,
        an in 3usize..9, ap in 0.0..1.0f64,
        bx in -3.0..3.0f64, by in -3.0..3.0f64, br in 0.1..2.5f64,
        bn in 3usize..9, bp in 0.0..1.0f64,
    ) {
        let pa = poly(ax, ay, ar, an, ap);
        let pb = poly(bx, by, br, bn, bp);
        let got = intersects(&Geometry::Polygon(pa.clone()), &Geometry::Polygon(pb.clone()));
        let want = intersects_brute(&pa, &pb);
        prop_assert_eq!(got, want, "library vs brute force on {:?} / {:?}", pa, pb);
    }

    #[test]
    fn within_implies_intersects(
        cx in -3.0..3.0f64, cy in -3.0..3.0f64,
        inner_r in 0.1..1.0f64, outer_extra in 0.5..3.0f64,
        n in 3usize..9,
    ) {
        let inner = Geometry::Polygon(poly(cx, cy, inner_r, n, 0.3));
        let outer = Geometry::Polygon(poly(cx, cy, inner_r + outer_extra, 8, 0.0));
        prop_assert!(within(&inner, &outer));
        prop_assert!(intersects(&inner, &outer));
    }

    #[test]
    fn intersects_distributes_over_parts(
        parts in prop::collection::vec(part(), 1..6),
        bx in -3.0..3.0f64, by in -3.0..3.0f64, br in 0.5..4.0f64,
        bn in 3usize..9, bp in 0.0..1.0f64,
        nest in 0usize..3,
    ) {
        let b = Geometry::Polygon(poly(bx, by, br, bn, bp));
        let any_part = parts.iter().any(|p| intersects(p, &b));
        // Flat, nested after the first part, and nested at the front.
        let whole = match nest {
            0 => Geometry::Collection(parts.clone()),
            1 => Geometry::Collection(vec![
                parts[0].clone(),
                Geometry::Collection(parts[1..].to_vec()),
            ]),
            _ => Geometry::Collection(vec![Geometry::Collection(parts.clone())]),
        };
        prop_assert_eq!(intersects(&whole, &b), any_part, "{:?} against {:?}", whole, b);
        prop_assert_eq!(intersects(&b, &whole), any_part, "{:?} against {:?}", b, whole);
        let polygons: Vec<Polygon> = parts.iter().filter_map(polygon_of).collect();
        let any_polygon = parts
            .iter()
            .filter(|p| polygon_of(p).is_some())
            .any(|p| intersects(p, &b));
        let multi = Geometry::MultiPolygon(MultiPolygon::new(polygons));
        prop_assert_eq!(intersects(&multi, &b), any_polygon, "{:?} against {:?}", multi, b);
        prop_assert_eq!(intersects(&b, &multi), any_polygon, "{:?} against {:?}", b, multi);
    }
}
