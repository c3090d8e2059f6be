//! Spatial relation predicates (Table 1, category ii).
//!
//! The paper implements relations between a streamed geometry and a
//! reference set with an *edge-testing* algorithm: every incoming edge
//! is tested against the reference edges, plus two point-in-polygon
//! probes to catch full containment (§3.4, ST_Intersects example). The
//! same decomposition is used here, with an incremental
//! [`EdgeRelateState`] that the periodically flushing transducers in
//! `atgis-core` wrap.

use crate::point::Point;
use crate::polygon::{Geometry, Polygon};
use crate::segment::{segments_cross_properly, segments_intersect, Segment};

/// A DE-9IM-style intersection matrix restricted to the
/// boundary/interior intersection facts the Table 1 predicates need.
///
/// `dim[i][j]` holds the dimension (-1 = empty, 0 = point, 1 = line,
/// 2 = area) of the intersection between part `i` of geometry A and
/// part `j` of geometry B, where parts are ordered interior, boundary,
/// exterior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntersectionMatrix {
    /// The 3×3 dimension matrix (interior/boundary/exterior ×
    /// interior/boundary/exterior).
    pub dim: [[i8; 3]; 3],
}

/// Alias matching the familiar PostGIS name.
pub type De9Im = IntersectionMatrix;

impl IntersectionMatrix {
    /// Matrix with every entry empty.
    pub const EMPTY: IntersectionMatrix = IntersectionMatrix { dim: [[-1; 3]; 3] };

    /// Renders the matrix as the 9-character DE-9IM string
    /// (e.g. `"212101212"`), with `F` for empty entries.
    pub fn to_de9im_string(&self) -> String {
        self.dim
            .iter()
            .flatten()
            .map(|&d| match d {
                -1 => 'F',
                0 => '0',
                1 => '1',
                2 => '2',
                _ => 'T',
            })
            .collect()
    }

    /// Tests the matrix against a DE-9IM pattern such as `"T*F**F***"`.
    /// `T` = non-empty, `F` = empty, `0`/`1`/`2` = exact dimension,
    /// `*` = anything.
    pub fn matches(&self, pattern: &str) -> bool {
        debug_assert_eq!(pattern.len(), 9);
        self.dim
            .iter()
            .flatten()
            .zip(pattern.chars())
            .all(|(&d, p)| match p {
                'T' => d >= 0,
                'F' => d < 0,
                '0' => d == 0,
                '1' => d == 1,
                '2' => d == 2,
                '*' => true,
                other => panic!("invalid DE-9IM pattern char {other:?}"),
            })
    }
}

/// Incremental edge-relation state between a streamed geometry and a
/// fixed reference polygon. This is the "Bool×Bool processing state"
/// Table 1 lists for the PFT forms of ST_Intersects / ST_Within /
/// ST_Contains / ST_Overlaps: it accumulates per-edge facts and is
/// merged associatively (both fields are monotone ORs / ANDs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRelateState {
    /// Any streamed edge intersects a reference edge.
    pub any_edge_intersects: bool,
    /// Any streamed edge crosses a reference edge *properly*.
    pub any_proper_crossing: bool,
    /// Every streamed vertex so far lies inside (or on) the reference.
    pub all_vertices_inside: bool,
    /// Any streamed vertex lies strictly inside the reference.
    pub any_vertex_strictly_inside: bool,
    /// Any streamed vertex lies strictly outside the reference.
    pub any_vertex_outside: bool,
    /// First streamed vertex, kept for the paper's two-way
    /// point-in-polygon shortcut.
    pub first_vertex: Option<Point>,
}

impl Default for EdgeRelateState {
    fn default() -> Self {
        EdgeRelateState {
            any_edge_intersects: false,
            any_proper_crossing: false,
            all_vertices_inside: true,
            any_vertex_strictly_inside: false,
            any_vertex_outside: false,
            first_vertex: None,
        }
    }
}

impl EdgeRelateState {
    /// Folds one streamed edge into the state, testing it against every
    /// edge of `reference`.
    pub fn process_edge(&mut self, edge: &Segment, reference: &Polygon) {
        if self.first_vertex.is_none() {
            self.first_vertex = Some(edge.a);
        }
        for rseg in reference.all_segments() {
            if segments_intersect(edge, &rseg) {
                self.any_edge_intersects = true;
                if segments_cross_properly(edge, &rseg) {
                    self.any_proper_crossing = true;
                }
            }
        }
        for v in [edge.a, edge.b] {
            let inside = reference.contains_point(&v);
            if !inside {
                self.all_vertices_inside = false;
                self.any_vertex_outside = true;
            } else if !on_polygon_boundary(reference, &v) {
                self.any_vertex_strictly_inside = true;
            }
        }
    }

    /// Associative merge of two partial states (the AT ⊗ operation).
    /// `other` must cover the input suffix immediately following
    /// `self`'s.
    pub fn merge(&self, other: &EdgeRelateState) -> EdgeRelateState {
        EdgeRelateState {
            any_edge_intersects: self.any_edge_intersects || other.any_edge_intersects,
            any_proper_crossing: self.any_proper_crossing || other.any_proper_crossing,
            all_vertices_inside: self.all_vertices_inside && other.all_vertices_inside,
            any_vertex_strictly_inside: self.any_vertex_strictly_inside
                || other.any_vertex_strictly_inside,
            any_vertex_outside: self.any_vertex_outside || other.any_vertex_outside,
            first_vertex: self.first_vertex.or(other.first_vertex),
        }
    }

    /// Final intersects decision, completing the paper's algorithm with
    /// the reference-inside-streamed probe.
    pub fn finish_intersects(&self, streamed: &Polygon, reference: &Polygon) -> bool {
        if self.any_edge_intersects || self.any_vertex_strictly_inside || self.all_vertices_inside {
            return true;
        }
        // Reference may be entirely inside the streamed geometry: probe
        // an arbitrary reference interior point (§3.4).
        match reference.exterior.interior_point() {
            Some(ip) => streamed.contains_point(&ip),
            None => false,
        }
    }
}

fn on_polygon_boundary(p: &Polygon, v: &Point) -> bool {
    p.all_segments().any(|s| s.contains_point(v))
}

/// True when `a` and `b` share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    if !a.mbr().intersects(&b.mbr()) {
        return false;
    }
    // Edge-vs-edge tests.
    let ea = a.all_segments();
    let eb = b.all_segments();
    for sa in &ea {
        for sb in &eb {
            if segments_intersect(sa, sb) {
                return true;
            }
        }
    }
    // Containment probes (either direction), per §3.4.
    if let Some(p) = a.first_point() {
        if b.contains_point(&p) {
            return true;
        }
    }
    if let Some(p) = b.first_point() {
        if a.contains_point(&p) {
            return true;
        }
    }
    // Point/point or point/shape cases with no edges.
    match (a, b) {
        (Geometry::Point(p), _) => b.contains_point(p),
        (_, Geometry::Point(p)) => a.contains_point(p),
        _ => false,
    }
}

/// True when `a` and `b` share no points.
pub fn disjoint(a: &Geometry, b: &Geometry) -> bool {
    !intersects(a, b)
}

/// True when every point of `a` lies in `b` (boundary allowed) and the
/// interiors intersect.
pub fn within(a: &Geometry, b: &Geometry) -> bool {
    if !b.mbr().contains(&a.mbr()) {
        return false;
    }
    let pts = a.points();
    if pts.is_empty() {
        return false;
    }
    if !pts.iter().all(|p| b.contains_point(p)) {
        return false;
    }
    // No edge of `a` may properly cross out of `b`.
    for sa in a.all_segments() {
        for sb in b.all_segments() {
            if segments_cross_properly(&sa, &sb) {
                return false;
            }
        }
    }
    // Edge midpoints must also be inside (vertices alone are not enough
    // for concave containers).
    a.all_segments().iter().all(|s| {
        let mid = Point::new((s.a.x + s.b.x) * 0.5, (s.a.y + s.b.y) * 0.5);
        b.contains_point(&mid)
    })
}

/// True when `b` is within `a` (the converse of [`within`]).
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    within(b, a)
}

/// True when the geometries touch only at boundaries: they intersect
/// but their interiors do not.
pub fn touches(a: &Geometry, b: &Geometry) -> bool {
    if !intersects(a, b) {
        return false;
    }
    !interiors_intersect(a, b)
}

/// True when the geometries cross: interiors intersect, but neither
/// contains the other (for area/area this means a proper boundary
/// crossing; for line/area, passing through).
pub fn crosses(a: &Geometry, b: &Geometry) -> bool {
    let ea = a.all_segments();
    let eb = b.all_segments();
    let proper = ea
        .iter()
        .any(|sa| eb.iter().any(|sb| segments_cross_properly(sa, sb)));
    proper && !within(a, b) && !within(b, a)
}

/// True when the interiors intersect, neither geometry contains the
/// other, and both contribute area outside the intersection.
pub fn overlaps(a: &Geometry, b: &Geometry) -> bool {
    if within(a, b) || within(b, a) {
        return false;
    }
    if !interiors_intersect(a, b) {
        return false;
    }
    // Both must also have a point outside the other.
    has_point_outside(a, b) && has_point_outside(b, a)
}

fn interiors_intersect(a: &Geometry, b: &Geometry) -> bool {
    // Proper edge crossing implies interior intersection for areal
    // geometries.
    let ea = a.all_segments();
    let eb = b.all_segments();
    if ea
        .iter()
        .any(|sa| eb.iter().any(|sb| segments_cross_properly(sa, sb)))
    {
        return true;
    }
    // A strictly-interior vertex of either in the other.
    let strictly_inside = |pts: &[Point], g: &Geometry| {
        pts.iter()
            .any(|p| g.contains_point(p) && !on_geometry_boundary(g, p))
    };
    if strictly_inside(&a.points(), b) || strictly_inside(&b.points(), a) {
        return true;
    }
    // Interior probe points (handles equal geometries / full
    // containment with all vertices on boundaries).
    for poly in a.polygons() {
        if let Some(ip) = poly.exterior.interior_point() {
            if poly.contains_point(&ip) && b.contains_point(&ip) && !on_geometry_boundary(b, &ip) {
                return true;
            }
        }
    }
    for poly in b.polygons() {
        if let Some(ip) = poly.exterior.interior_point() {
            if poly.contains_point(&ip) && a.contains_point(&ip) && !on_geometry_boundary(a, &ip) {
                return true;
            }
        }
    }
    false
}

fn on_geometry_boundary(g: &Geometry, p: &Point) -> bool {
    g.all_segments().iter().any(|s| s.contains_point(p))
}

fn has_point_outside(a: &Geometry, b: &Geometry) -> bool {
    a.points().iter().any(|p| !b.contains_point(p))
}

/// Minimum planar distance between two geometries (ST_Distance): zero
/// when they intersect, otherwise the smallest edge-to-edge /
/// point-to-edge separation. Edge-streamable: Table 1 classifies it as
/// a PFT over edges with a running `Float` minimum, which is exactly a
/// fold of [`crate::segment::Segment::distance_to_segment`].
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    if intersects(a, b) {
        return 0.0;
    }
    let ea = a.all_segments();
    let eb = b.all_segments();
    let mut best = f64::INFINITY;
    match (ea.is_empty(), eb.is_empty()) {
        (true, true) => {
            // Point/point (or empty) geometries.
            for p in a.points() {
                for q in b.points() {
                    best = best.min(p.distance(&q));
                }
            }
        }
        (true, false) => {
            for p in a.points() {
                for s in &eb {
                    best = best.min(s.distance_to_point(&p));
                }
            }
        }
        (false, true) => {
            for q in b.points() {
                for s in &ea {
                    best = best.min(s.distance_to_point(&q));
                }
            }
        }
        (false, false) => {
            for sa in &ea {
                for sb in &eb {
                    best = best.min(sa.distance_to_segment(sb));
                }
            }
        }
    }
    best
}

/// Computes the (simplified) DE-9IM intersection matrix between two
/// areal geometries. Dimensions are approximated from the predicate
/// facts; exterior/exterior is always 2.
pub fn relate(a: &Geometry, b: &Geometry) -> IntersectionMatrix {
    let mut m = IntersectionMatrix::EMPTY;
    m.dim[2][2] = 2; // Exteriors always intersect for bounded geometries.

    let inter = intersects(a, b);
    let ii = interiors_intersect(a, b);
    let a_in_b = within(a, b);
    let b_in_a = within(b, a);

    if ii {
        m.dim[0][0] = 2;
    }
    if inter {
        // Boundary/boundary contact: any edge intersection.
        let eb = b.all_segments();
        let edge_touch = a
            .all_segments()
            .iter()
            .any(|sa| eb.iter().any(|sb| segments_intersect(sa, sb)));
        if edge_touch {
            let proper = a
                .all_segments()
                .iter()
                .any(|sa| eb.iter().any(|sb| segments_cross_properly(sa, sb)));
            // Proper crossings meet at points (dim 0); shared edges give
            // dim 1. We report the stronger (1) only when a collinear
            // overlap exists.
            let collinear_overlap = a.all_segments().iter().any(|sa| {
                eb.iter().any(|sb| {
                    segments_intersect(sa, sb)
                        && !segments_cross_properly(sa, sb)
                        && sa.contains_point(&sb.a)
                        && sa.contains_point(&sb.b)
                })
            });
            m.dim[1][1] = if collinear_overlap {
                1
            } else if proper || edge_touch {
                0
            } else {
                -1
            };
        }
    }
    if !a_in_b {
        // Part of A's interior lies in B's exterior.
        if has_point_outside(a, b) || !inter {
            m.dim[0][2] = 2;
            m.dim[1][2] = 1;
        }
    } else {
        m.dim[0][0] = 2; // A inside B forces interior/interior.
    }
    if !b_in_a {
        if has_point_outside(b, a) || !inter {
            m.dim[2][0] = 2;
            m.dim[2][1] = 1;
        }
    } else {
        m.dim[0][0] = 2;
    }
    if ii {
        // Boundary of A against interior of B and vice versa.
        if !a_in_b || b_in_a {
            // Approximation: boundaries pass through interiors whenever
            // the shapes properly overlap.
        }
        let eb_in_b_interior = a
            .points()
            .iter()
            .any(|p| b.contains_point(p) && !on_geometry_boundary(b, p));
        if eb_in_b_interior {
            m.dim[1][0] = 1;
        }
        let ea_in_a_interior = b
            .points()
            .iter()
            .any(|p| a.contains_point(p) && !on_geometry_boundary(a, p));
        if ea_in_a_interior {
            m.dim[0][1] = 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::{unit_square, Polygon};

    fn square(x0: f64, y0: f64, size: f64) -> Geometry {
        Geometry::Polygon(Polygon::from_exterior(vec![
            Point::new(x0, y0),
            Point::new(x0 + size, y0),
            Point::new(x0 + size, y0 + size),
            Point::new(x0, y0 + size),
        ]))
    }

    #[test]
    fn overlapping_squares_intersect() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        assert!(intersects(&a, &b));
        assert!(!disjoint(&a, &b));
        assert!(overlaps(&a, &b));
        assert!(!within(&a, &b));
        assert!(!touches(&a, &b));
        assert!(crosses(&a, &b) || overlaps(&a, &b));
    }

    #[test]
    fn distant_squares_are_disjoint() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(5.0, 5.0, 1.0);
        assert!(disjoint(&a, &b));
        assert!(!intersects(&a, &b));
        assert!(!touches(&a, &b));
        assert!(!overlaps(&a, &b));
    }

    #[test]
    fn nested_squares_within_contains() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(within(&inner, &outer));
        assert!(contains(&outer, &inner));
        assert!(
            intersects(&inner, &outer),
            "containment implies intersection"
        );
        assert!(!overlaps(&inner, &outer), "containment is not overlap");
        assert!(!touches(&inner, &outer));
    }

    #[test]
    fn edge_adjacent_squares_touch() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0);
        assert!(intersects(&a, &b));
        assert!(touches(&a, &b));
        assert!(!overlaps(&a, &b));
        assert!(!within(&a, &b));
    }

    #[test]
    fn corner_touching_squares_touch() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 1.0, 1.0);
        assert!(intersects(&a, &b));
        assert!(touches(&a, &b));
        assert!(!overlaps(&a, &b));
    }

    #[test]
    fn identical_squares_are_within_each_other() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(0.0, 0.0, 1.0);
        assert!(within(&a, &b) && within(&b, &a));
        assert!(!overlaps(&a, &b));
        assert!(!touches(&a, &b), "interiors intersect");
    }

    #[test]
    fn geometry_fully_containing_reference_intersects() {
        // The §3.4 corner case: streamed polygon entirely around the
        // reference, no edge crossings.
        let big = square(0.0, 0.0, 10.0);
        let small = square(4.0, 4.0, 1.0);
        assert!(intersects(&big, &small));
        assert!(intersects(&small, &big));
    }

    #[test]
    fn point_in_polygon_intersects() {
        let a = square(0.0, 0.0, 2.0);
        let inside = Geometry::Point(Point::new(1.0, 1.0));
        let outside = Geometry::Point(Point::new(5.0, 5.0));
        assert!(intersects(&a, &inside));
        assert!(intersects(&inside, &a));
        assert!(disjoint(&a, &outside));
    }

    #[test]
    fn crossing_linestring() {
        let a = square(0.0, 0.0, 2.0);
        let line = Geometry::LineString(crate::polygon::LineString::new(vec![
            Point::new(-1.0, 1.0),
            Point::new(3.0, 1.0),
        ]));
        assert!(intersects(&a, &line));
        assert!(crosses(&line, &a));
        assert!(!within(&line, &a));
    }

    #[test]
    fn contained_linestring_is_within() {
        let a = square(0.0, 0.0, 2.0);
        let line = Geometry::LineString(crate::polygon::LineString::new(vec![
            Point::new(0.5, 0.5),
            Point::new(1.5, 1.5),
        ]));
        assert!(within(&line, &a));
        assert!(!crosses(&line, &a));
    }

    #[test]
    fn concave_containment_rejects_vertex_only_inclusion() {
        // U-shaped container: segment between the two prongs has both
        // endpoints inside but its midpoint outside the U.
        let u = Geometry::Polygon(Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(4.0, 5.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 5.0),
            Point::new(0.0, 5.0),
        ]));
        let bridging = Geometry::LineString(crate::polygon::LineString::new(vec![
            Point::new(0.5, 4.0),
            Point::new(4.5, 4.0),
        ]));
        assert!(!within(&bridging, &u), "bridge leaves the U");
    }

    #[test]
    fn de9im_string_and_patterns() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        let m = relate(&a, &b);
        assert_eq!(m.to_de9im_string().len(), 9);
        assert!(m.matches("T********"), "interiors intersect");
        let far = square(10.0, 10.0, 1.0);
        let m2 = relate(&a, &far);
        assert!(m2.matches("FF*FF****"), "disjoint pattern");
    }

    #[test]
    fn distance_basics() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(3.0, 0.0, 1.0);
        assert_eq!(crate::relate::distance(&a, &b), 2.0, "edge-to-edge gap");
        let c = square(0.5, 0.5, 2.0);
        assert_eq!(crate::relate::distance(&a, &c), 0.0, "intersecting = 0");
        let p = Geometry::Point(Point::new(0.5, 5.0));
        assert_eq!(crate::relate::distance(&a, &p), 4.0, "point to edge");
        let q = Geometry::Point(Point::new(10.0, 0.0));
        let r = Geometry::Point(Point::new(13.0, 4.0));
        assert_eq!(crate::relate::distance(&q, &r), 5.0, "point to point");
    }

    #[test]
    fn distance_is_symmetric_and_nonnegative() {
        let a = square(0.0, 0.0, 1.0);
        for other in [
            square(5.0, 5.0, 2.0),
            Geometry::Point(Point::new(-3.0, -4.0)),
            Geometry::LineString(crate::polygon::LineString::new(vec![
                Point::new(4.0, 0.0),
                Point::new(4.0, 9.0),
            ])),
        ] {
            let d1 = crate::relate::distance(&a, &other);
            let d2 = crate::relate::distance(&other, &a);
            assert!((d1 - d2).abs() < 1e-12);
            assert!(d1 >= 0.0);
        }
    }

    #[test]
    fn edge_relate_state_merge_is_associative() {
        let reference = unit_square();
        let edges = [
            Segment::new(Point::new(-1.0, 0.5), Point::new(0.5, 0.5)),
            Segment::new(Point::new(0.5, 0.5), Point::new(2.0, 0.5)),
            Segment::new(Point::new(2.0, 0.5), Point::new(2.0, 2.0)),
        ];
        // Build per-edge fragments and merge in two association orders.
        let frags: Vec<EdgeRelateState> = edges
            .iter()
            .map(|e| {
                let mut s = EdgeRelateState::default();
                s.process_edge(e, &reference);
                s
            })
            .collect();
        let left = frags[0].merge(&frags[1]).merge(&frags[2]);
        let right = frags[0].merge(&frags[1].merge(&frags[2]));
        assert_eq!(left, right);
        // And both equal the sequential fold.
        let mut seq = EdgeRelateState::default();
        for e in &edges {
            seq.process_edge(e, &reference);
        }
        assert_eq!(left, seq);
    }

    #[test]
    fn edge_relate_finish_detects_surrounding_geometry() {
        let reference = unit_square();
        // A big triangle entirely around the unit square; no crossings.
        let streamed = Polygon::from_exterior(vec![
            Point::new(-10.0, -10.0),
            Point::new(20.0, -10.0),
            Point::new(0.0, 20.0),
        ]);
        let mut st = EdgeRelateState::default();
        for e in streamed.all_segments() {
            st.process_edge(&e, &reference);
        }
        assert!(!st.any_edge_intersects);
        assert!(st.finish_intersects(&streamed, &reference));
    }
}
