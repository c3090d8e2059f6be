//! Property tests for `atgis_geometry::PreparedRegion::intersects`
//! against its reference, `atgis_geometry::relate::intersects`: the
//! two must give the same answer for every feature and region.
//!
//! Coordinates are drawn mostly from a half-unit grid, so features
//! regularly land exactly on a region's edge or vertex, have
//! zero-width MBRs, or sit exactly on the closed box a rectangular
//! region is decided by; the rest are arbitrary floats. Anchored
//! features are placed on purpose on a region vertex, an edge midpoint,
//! or inside a hole or notch.

use atgis_geometry::relate::intersects;
use atgis_geometry::{
    Geometry, LineString, Mbr, MultiPolygon, Point, Polygon, PreparedRegion, Ring,
};
use proptest::prelude::*;

/// A grid value (multiple of 0.5 in [-4, 4]) most of the time, an
/// arbitrary float otherwise.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (-8i32..=8).prop_map(|v| v as f64 * 0.5),
        1 => -4.5..4.5f64,
    ]
}

fn point() -> impl Strategy<Value = Point> {
    (coord(), coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn rect_polygon() -> impl Strategy<Value = Polygon> {
    (coord(), coord(), coord(), coord()).prop_map(|(a, b, c, d)| {
        Polygon::from_mbr(&Mbr::new(a.min(c), b.min(d), a.max(c), b.max(d)))
    })
}

/// A convex polygon: `n` vertices on a circle, rotated by `phase`.
fn convex_polygon() -> impl Strategy<Value = Polygon> {
    (point(), 0.25..3.0f64, 3usize..8, 0.0..6.3f64).prop_map(|(c, r, n, phase)| {
        Polygon::from_exterior(
            (0..n)
                .map(|i| {
                    let theta = phase + std::f64::consts::TAU * i as f64 / n as f64;
                    Point::new(c.x + r * theta.cos(), c.y + r * theta.sin())
                })
                .collect(),
        )
    })
}

/// An L: a `w`×`h` box at `origin` with its upper-right part cut away,
/// leaving arms of thickness `t`.
fn l_polygon() -> impl Strategy<Value = Polygon> {
    (point(), 2i32..8, 2i32..8, 1i32..4).prop_map(|(o, w, h, t)| {
        let (w, h) = (w as f64 * 0.5, h as f64 * 0.5);
        let t = (t as f64 * 0.5).min(w.min(h) - 0.5).max(0.5);
        Polygon::from_exterior(vec![
            o,
            Point::new(o.x + w, o.y),
            Point::new(o.x + w, o.y + t),
            Point::new(o.x + t, o.y + t),
            Point::new(o.x + t, o.y + h),
            Point::new(o.x, o.y + h),
        ])
    })
}

/// A box with a box-shaped hole strictly inside it.
fn holed_polygon() -> impl Strategy<Value = Polygon> {
    (point(), 3i32..10, 3i32..10, 0.0..1.0f64, 0.0..1.0f64).prop_map(|(o, w, h, fx, fy)| {
        let (w, h) = (w as f64 * 0.5, h as f64 * 0.5);
        let hole_min = Point::new(o.x + 0.5 + fx * (w - 1.5), o.y + 0.5 + fy * (h - 1.5));
        let hole = Mbr::new(hole_min.x, hole_min.y, hole_min.x + 0.5, hole_min.y + 0.5);
        Polygon::new(
            Polygon::from_mbr(&Mbr::new(o.x, o.y, o.x + w, o.y + h)).exterior,
            vec![Polygon::from_mbr(&hole).exterior.normalised_cw()],
        )
    })
}

fn region() -> impl Strategy<Value = Polygon> {
    prop_oneof![
        3 => rect_polygon(),
        1 => rect_polygon().prop_map(|mut p| {
            // The same box from another start vertex: rectangular, but
            // not in `Polygon::from_mbr`'s form.
            p.exterior.points.rotate_left(1);
            p
        }),
        2 => convex_polygon(),
        2 => l_polygon(),
        2 => holed_polygon(),
    ]
}

fn linestring() -> impl Strategy<Value = LineString> {
    prop_oneof![
        3 => prop::collection::vec(point(), 1..5).prop_map(LineString::new),
        // Axis-parallel: a zero-width MBR.
        1 => (coord(), coord(), coord(), any_bool()).prop_map(|(a, b, c, vertical)| {
            let (p, q) = if vertical {
                (Point::new(a, b), Point::new(a, c))
            } else {
                (Point::new(b, a), Point::new(c, a))
            };
            LineString::new(vec![p, q])
        }),
    ]
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn polygon() -> impl Strategy<Value = Polygon> {
    prop_oneof![
        3 => rect_polygon(),
        2 => convex_polygon(),
        1 => holed_polygon(),
        // Any three to six vertices, self-intersecting or not.
        2 => prop::collection::vec(point(), 3..7).prop_map(Polygon::from_exterior),
    ]
}

fn leaf() -> BoxedStrategy<Geometry> {
    prop_oneof![
        point().prop_map(Geometry::Point),
        linestring().prop_map(Geometry::LineString),
        polygon().prop_map(Geometry::Polygon),
    ]
    .boxed()
}

fn feature() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        6 => leaf(),
        2 => prop::collection::vec(polygon(), 0..4)
            .prop_map(|ps| Geometry::MultiPolygon(MultiPolygon::new(ps))),
        1 => prop::collection::vec(leaf(), 0..4).prop_map(Geometry::Collection),
        1 => (leaf(), prop::collection::vec(leaf(), 0..3)).prop_map(|(a, inner)| {
            Geometry::Collection(vec![Geometry::Collection(inner), a])
        }),
    ]
}

/// A feature placed on the region: at a vertex, an edge midpoint or
/// a ring's MBR centre (then small, to land inside holes and notches),
/// as a point, a segment leaving it, or a box cornered on it.
fn anchored(region: &Polygon, at: usize, shape: usize, dx: f64, dy: f64) -> Geometry {
    let ring: &Ring = if region.holes.is_empty() || at % 2 == 1 {
        &region.exterior
    } else {
        &region.holes[0]
    };
    let n = ring.points.len();
    let a = ring.points[at % n];
    let b = ring.points[(at + 1) % n];
    let (p, scale) = match shape / 3 {
        0 => (a, 1.0),
        1 => (Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5), 1.0),
        _ => (ring.mbr().center(), 0.1),
    };
    let q = Point::new(p.x + dx * scale, p.y + dy * scale);
    match shape % 3 {
        0 => Geometry::Point(p),
        1 => Geometry::LineString(LineString::new(vec![p, q])),
        _ => Geometry::Polygon(Polygon::from_mbr(&Mbr::from_point(p).expanded_to(q))),
    }
}

fn assert_agrees(region: &Polygon, g: &Geometry) {
    let prepared = PreparedRegion::new(region.clone());
    let want = intersects(g, &Geometry::Polygon(region.clone()));
    assert_eq!(
        prepared.intersects(g, &g.mbr()),
        want,
        "feature {g:?}\nregion {region:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn prepared_agrees_with_relate(r in region(), g in feature()) {
        assert_agrees(&r, &g);
    }

    #[test]
    fn prepared_agrees_with_relate_on_anchored_features(
        r in region(),
        at in 0usize..12,
        shape in 0usize..9,
        dx in coord(),
        dy in coord(),
    ) {
        assert_agrees(&r, &anchored(&r, at, shape, dx, dy));
    }
}

#[test]
fn inside_step_matches_every_feature_in_the_closed_box() {
    let region = Polygon::from_mbr(&Mbr::new(-1.0, -1.0, 1.0, 1.0));
    for g in [
        Geometry::Point(Point::new(1.0, 1.0)),
        Geometry::Point(Point::new(0.0, -1.0)),
        Geometry::LineString(LineString::new(vec![
            Point::new(-1.0, -1.0),
            Point::new(-1.0, 1.0),
        ])),
        Geometry::Polygon(Polygon::from_mbr(&Mbr::new(-1.0, -1.0, 1.0, 1.0))),
        Geometry::Polygon(Polygon::from_mbr(&Mbr::new(-0.5, 0.0, 0.5, 0.0))),
    ] {
        assert_agrees(&region, &g);
        assert!(PreparedRegion::new(region.clone()).intersects(&g, &g.mbr()));
    }
}
