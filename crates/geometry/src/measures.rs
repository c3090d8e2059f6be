//! Area, perimeter and distance measures.
//!
//! The paper's aggregation query computes total area and perimeter of
//! the selected polygons (Table 3) under a spherical coordinate system,
//! using either a cheap spherical projection or Andoyer's more accurate
//! geodesic formula (§5, Fig. 13). [`DistanceModel`] selects between the
//! planar and the two spherical models.

use crate::point::Point;
use crate::polygon::{Geometry, Polygon, Ring};
use crate::sphere;

/// Which distance computation the perimeter/area measures use.
///
/// The paper evaluates `Spherical` (default) against `Andoyer`
/// (Fig. 13b); `Planar` is used for synthetic Cartesian data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceModel {
    /// Euclidean distance on raw coordinates.
    Planar,
    /// Great-circle distance on a sphere (haversine), the paper's
    /// default "spherical projection".
    #[default]
    Spherical,
    /// Andoyer's first-order spheroidal correction — more accurate,
    /// more floating-point work (the paper's Fig. 13b configuration).
    Andoyer,
}

impl DistanceModel {
    /// Distance between two points under the model, in model-specific
    /// units (coordinate units for `Planar`, metres otherwise).
    #[inline]
    pub fn distance(&self, a: &Point, b: &Point) -> f64 {
        match self {
            DistanceModel::Planar => a.distance(b),
            DistanceModel::Spherical => sphere::haversine_distance(a, b),
            DistanceModel::Andoyer => sphere::andoyer_distance(a, b),
        }
    }
}

/// Twice the signed shoelace area of a point slice interpreted as a
/// closed ring (implicit closing edge).
pub fn signed_ring_area(points: &[Point]) -> f64 {
    let n = points.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let p = points[i];
        let q = points[(i + 1) % n];
        acc += p.x * q.y - q.x * p.y;
    }
    acc * 0.5
}

/// Planar (shoelace) area of any geometry.
pub fn planar_area(g: &Geometry) -> f64 {
    g.area()
}

/// Perimeter of a geometry under the given distance model.
pub fn perimeter(g: &Geometry, model: DistanceModel) -> f64 {
    match g {
        Geometry::Point(_) => 0.0,
        Geometry::LineString(ls) => ls
            .points
            .windows(2)
            .map(|w| model.distance(&w[0], &w[1]))
            .sum(),
        Geometry::Polygon(p) => polygon_perimeter(p, model),
        Geometry::MultiPolygon(mp) => mp
            .polygons
            .iter()
            .map(|p| polygon_perimeter(p, model))
            .sum(),
        Geometry::Collection(gs) => gs.iter().map(|g| perimeter(g, model)).sum(),
    }
}

/// Perimeter of a polygon (all rings) under the given distance model.
pub fn polygon_perimeter(p: &Polygon, model: DistanceModel) -> f64 {
    ring_perimeter(&p.exterior, model)
        + p.holes
            .iter()
            .map(|h| ring_perimeter(h, model))
            .sum::<f64>()
}

/// Perimeter of one ring under the given distance model.
pub fn ring_perimeter(r: &Ring, model: DistanceModel) -> f64 {
    let n = r.points.len();
    if n < 2 {
        return 0.0;
    }
    (0..n)
        .map(|i| model.distance(&r.points[i], &r.points[(i + 1) % n]))
        .sum()
}

/// Area of a geometry under the given model: shoelace for `Planar`,
/// spherical excess (L'Huilier via Girard summation) otherwise.
pub fn area(g: &Geometry, model: DistanceModel) -> f64 {
    match model {
        DistanceModel::Planar => g.area(),
        // Andoyer refines distances, not areas; both spherical models
        // share the spherical-excess area.
        DistanceModel::Spherical | DistanceModel::Andoyer => spherical_area(g),
    }
}

fn spherical_area(g: &Geometry) -> f64 {
    match g {
        Geometry::Point(_) | Geometry::LineString(_) => 0.0,
        Geometry::Polygon(p) => polygon_spherical_area(p),
        Geometry::MultiPolygon(mp) => mp.polygons.iter().map(polygon_spherical_area).sum(),
        Geometry::Collection(gs) => gs.iter().map(spherical_area).sum(),
    }
}

/// Spherical-excess area of a polygon: exterior minus holes.
fn polygon_spherical_area(p: &Polygon) -> f64 {
    let holes: f64 = p.holes.iter().map(|h| sphere::ring_area(&h.points)).sum();
    (sphere::ring_area(&p.exterior.points) - holes).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::unit_square;

    #[test]
    fn planar_perimeter_matches_polygon_method() {
        let g = Geometry::Polygon(unit_square());
        assert_eq!(perimeter(&g, DistanceModel::Planar), 4.0);
    }

    #[test]
    fn signed_area_sign_tracks_winding() {
        let ccw = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        assert!(signed_ring_area(&ccw) > 0.0);
        let cw: Vec<_> = ccw.iter().rev().copied().collect();
        assert!(signed_ring_area(&cw) < 0.0);
        assert_eq!(signed_ring_area(&ccw).abs(), 0.5);
    }

    #[test]
    fn spherical_perimeter_close_to_planar_times_degree_length_at_equator() {
        // A 1-degree square at the equator: each side is ~111.2 km.
        let g = Geometry::Polygon(unit_square());
        let p = perimeter(&g, DistanceModel::Spherical);
        assert!((p - 4.0 * 111_195.0).abs() / p < 0.01, "perimeter = {p}");
    }

    #[test]
    fn andoyer_within_one_percent_of_spherical() {
        let g = Geometry::Polygon(unit_square());
        let s = perimeter(&g, DistanceModel::Spherical);
        let a = perimeter(&g, DistanceModel::Andoyer);
        assert!((s - a).abs() / s < 0.01, "spherical {s} vs andoyer {a}");
        assert_ne!(s, a, "the two models must actually differ");
    }

    #[test]
    fn spherical_area_of_unit_square_at_equator() {
        let g = Geometry::Polygon(unit_square());
        let a = area(&g, DistanceModel::Spherical);
        // ~ (111.2 km)^2, within 1%.
        let expect = 111_195.0f64 * 111_195.0;
        assert!((a - expect).abs() / expect < 0.01, "area = {a}");
    }

    #[test]
    fn degenerate_geometries_measure_zero() {
        let p = Geometry::Point(Point::new(1.0, 2.0));
        assert_eq!(perimeter(&p, DistanceModel::Spherical), 0.0);
        assert_eq!(area(&p, DistanceModel::Planar), 0.0);
        let short = Geometry::LineString(crate::polygon::LineString::new(vec![Point::ORIGIN]));
        assert_eq!(perimeter(&short, DistanceModel::Planar), 0.0);
    }

    #[test]
    fn multipolygon_measures_are_the_in_order_member_results() {
        use crate::polygon::MultiPolygon;
        let member = |x: f64, y: f64, hole: bool| {
            let square = |x: f64, y: f64, s: f64| {
                Ring::new(vec![
                    Point::new(x, y),
                    Point::new(x + s, y),
                    Point::new(x + s, y + s * 0.7),
                    Point::new(x, y + s),
                ])
            };
            let holes = if hole {
                vec![square(x + 0.1, y + 0.1, 0.3).normalised_cw()]
            } else {
                Vec::new()
            };
            Polygon::new(square(x, y, 1.0), holes)
        };
        let members = vec![
            member(0.25, 10.0, true),
            member(-3.5, 44.125, false),
            member(120.0, -33.3, true),
        ];
        let mp = Geometry::MultiPolygon(MultiPolygon::new(members.clone()));
        let solo: Vec<Geometry> = members.into_iter().map(Geometry::Polygon).collect();

        let mut want = 0.0;
        for g in &solo {
            want += area(g, DistanceModel::Spherical);
        }
        assert_eq!(
            area(&mp, DistanceModel::Spherical).to_bits(),
            want.to_bits()
        );
        assert_eq!(
            mp.points(),
            solo.iter().flat_map(Geometry::points).collect::<Vec<_>>()
        );
    }

    #[test]
    fn linestring_length_under_models() {
        let ls = Geometry::LineString(crate::polygon::LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ]));
        assert_eq!(perimeter(&ls, DistanceModel::Planar), 1.0);
        let m = perimeter(&ls, DistanceModel::Spherical);
        assert!((m - 111_195.0).abs() / m < 0.01);
    }
}
