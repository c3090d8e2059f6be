//! Spatial relation predicates (Table 1, category ii).
//!
//! The paper implements relations between a streamed geometry and a
//! reference set with an *edge-testing* algorithm: every incoming edge
//! is tested against the reference edges, plus point-in-polygon probes
//! to catch full containment (§3.4, ST_Intersects example). The same
//! decomposition is used here, with an incremental [`EdgeRelateState`]
//! that the periodically flushing transducers in `atgis-core` wrap.
//!
//! Geometries are closed sets: a boundary contact, a shared vertex or
//! a point on an edge intersects. "On" means within the tolerance of
//! [`crate::segment::orientation`] and the `f64::EPSILON` box slack of
//! [`Segment::contains_point`].
//!
//! [`intersects`] is the refine kernel every caller shares (the join,
//! the sequential oracle, [`crate::PreparedRegion`]). Two rules make it
//! cheap and keep it exact:
//!
//! * **The window.** An edge pair is tested only when both edges' MBRs
//!   meet the overlap of the geometries' MBRs, and each other, widened
//!   by `8·ε·(1 + r)`, `r` the largest coordinate magnitude: after
//!   rounding, more than the `4·ε` a contact [`segments_intersect`]
//!   accepts can lie outside them. No pair that test would accept is
//!   skipped, so the answer is the all-pairs loop's.
//! * **One probe per vertex run.** Without an edge contact, each vertex
//!   run (a point, a linestring, a ring) lies wholly inside or wholly
//!   outside the other geometry, so the first vertex of every run is
//!   probed, both ways. Probing only a geometry's first vertex misses a
//!   later part of a multipolygon or collection that lies inside the
//!   other side.

use crate::mbr::Mbr;
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

/// True when `a` and `b` share at least one point, both taken as
/// closed sets (a boundary contact counts).
///
/// The paper's edge-testing algorithm (§3.4), filtered the way a PBSM
/// refine filters its candidates:
///
/// 1. disjoint MBRs are `false`;
/// 2. an edge pair is tested with [`segments_intersect`] only when both
///    edges' MBRs meet the overlap of the two geometries' MBRs and
///    each other, all widened by more than the slack that test allows,
///    so no pair it would accept is skipped;
/// 3. otherwise one vertex of every vertex run (each point, linestring
///    and ring) of either side is probed against the other side with
///    its point-in-geometry test. A run with no edge contact lies
///    wholly inside or wholly outside the other side, so one vertex
///    decides it; probing only the first vertex of a multi-part
///    geometry would miss a later part inside the other side.
///
/// It walks [`Geometry::segments`] without collecting them, so it
/// allocates nothing unless collections nest.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    intersects_with_mbrs(a, &a.mbr(), b, &b.mbr())
}

/// [`intersects`] with `ma == a.mbr()` and `mb == b.mbr()` already in
/// hand.
pub(crate) fn intersects_with_mbrs(a: &Geometry, ma: &Mbr, b: &Geometry, mb: &Mbr) -> bool {
    let Some(overlap) = ma.intersection(mb) else {
        return false;
    };
    edges_meet(a, b, &reach(&overlap)) || probes_hit(a, b) || probes_hit(b, a)
}

/// True when some edge of `a` meets some edge of `b`, testing only
/// the pairs whose MBRs meet `window` (the widened overlap of the
/// geometries' MBRs) and whose second MBR meets the first's [`reach`].
fn edges_meet(a: &Geometry, b: &Geometry, window: &Mbr) -> bool {
    a.segments().any(|sa| {
        let ra = sa.mbr();
        if !ra.intersects(window) {
            return false;
        }
        let near = reach(&ra);
        b.segments().any(|sb| {
            let rb = sb.mbr();
            rb.intersects(window) && rb.intersects(&near) && segments_intersect(&sa, &sb)
        })
    })
}

/// True when one vertex of some vertex run of `a` lies in `b`.
fn probes_hit(a: &Geometry, b: &Geometry) -> bool {
    a.chains()
        .any(|(vertices, _)| vertices.first().is_some_and(|p| b.contains_point(p)))
}

/// `m` widened on every side by `8·ε·(1 + r)`, `r` its largest
/// coordinate magnitude and `ε = f64::EPSILON`: after rounding, by more
/// than `4·ε`. An `m` too large to widen finitely becomes the whole
/// plane.
///
/// This is the slack the edge filter needs. [`segments_intersect`]
/// accepts either a proper crossing or a vertex `p` of one edge that
/// [`Segment::contains_point`] puts on the other. A proper crossing
/// needs four turns beyond `orientation`'s tolerance, which exceeds
/// its rounding error, so the crossing is real: it lies in both
/// edges, their MBRs and the overlap. The vertex test compares `p`
/// with the other edge's MBR moved out by `ε`, and that rounded bound
/// lies at most `2·ε` beyond the MBR. So `p` lies within `2·ε` of the
/// other edge's MBR and of the overlap, and the other edge within
/// `4·ε` of the overlap: every accepted pair has both edges meeting
/// the widened overlap, and each edge meeting the other's widened
/// MBR.
fn reach(m: &Mbr) -> Mbr {
    let r = m
        .min_x
        .abs()
        .max(m.max_x.abs())
        .max(m.min_y.abs())
        .max(m.max_y.abs());
    let d = 8.0 * f64::EPSILON * (1.0 + r);
    if d.is_finite() {
        Mbr::new(m.min_x - d, m.min_y - d, m.max_x + d, m.max_y + d)
    } else {
        Mbr::new(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        )
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

    /// The all-pairs edge test the window filters: every edge of `a`
    /// against every edge of `b`.
    fn all_pairs_meet(a: &Geometry, b: &Geometry) -> bool {
        a.segments()
            .any(|sa| b.segments().any(|sb| segments_intersect(&sa, &sb)))
    }

    /// The reference [`intersects`]: the MBR check, all edge pairs,
    /// then one probe per vertex run each way.
    fn intersects_all_pairs(a: &Geometry, b: &Geometry) -> bool {
        a.mbr().intersects(&b.mbr())
            && (all_pairs_meet(a, b) || probes_hit(a, b) || probes_hit(b, a))
    }

    /// The windowed edge test [`intersects`] runs, for MBRs that meet.
    fn windowed_meet(a: &Geometry, b: &Geometry) -> bool {
        let overlap = a.mbr().intersection(&b.mbr()).expect("MBRs meet");
        edges_meet(a, b, &reach(&overlap))
    }

    /// Asserts that, where the MBRs meet, the windowed edge test equals
    /// the all-pairs one both ways round, and that `intersects` equals
    /// its reference. Returns the answer.
    fn check_window(a: &Geometry, b: &Geometry) -> bool {
        if a.mbr().intersects(&b.mbr()) {
            let want = all_pairs_meet(a, b);
            assert_eq!(windowed_meet(a, b), want, "{a:?}\n{b:?}");
            assert_eq!(windowed_meet(b, a), want, "{b:?}\n{a:?}");
        }
        let got = intersects(a, b);
        assert_eq!(got, intersects_all_pairs(a, b), "{a:?}\n{b:?}");
        assert_eq!(got, intersects(b, a), "{a:?}\n{b:?}");
        got
    }

    fn line(points: &[(f64, f64)]) -> Geometry {
        Geometry::LineString(crate::polygon::LineString::new(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        ))
    }

    fn ring(points: &[(f64, f64)]) -> Geometry {
        Geometry::Polygon(Polygon::from_exterior(
            points.iter().map(|&(x, y)| Point::new(x, y)).collect(),
        ))
    }

    /// `x` moved by `k` ulps (towards +∞ for `k > 0`).
    fn ulps(x: f64, k: i64) -> f64 {
        let mut x = x;
        for _ in 0..k.abs() {
            x = if k > 0 { x.next_up() } else { x.next_down() };
        }
        x
    }

    #[test]
    fn window_keeps_contacts_a_few_ulps_off_an_edge() {
        // A box whose right edge is x = c, and a hook whose tip sits k
        // ulps from that edge, in and out. The hook's far end reaches
        // back over the box, above it, so the MBRs overlap in a
        // window that ends at x = c: for k > 0 the tip's edge lies
        // wholly outside it, and only the widening keeps the contact
        // `segments_intersect` sees there. `3.0.next_up()` has an odd
        // last bit, so its `+ ε` bound rounds up, a full ulp out.
        for c in [0.5, 1.0, 3.0f64.next_up(), 180.0, -180.0] {
            let bx = ring(&[(c - 1.0, 0.0), (c, 0.0), (c, 0.5), (c - 1.0, 0.5)]);
            for k in -4..=4 {
                let tip = ulps(c, k);
                let hook = line(&[(c - 0.5, 1.0), (c + 1.0, 1.0), (c + 1.0, 0.25), (tip, 0.25)]);
                let hit = check_window(&bx, &hook);
                // Below 4, `ε` is at least half an ulp, so the edge
                // still holds a tip one ulp out.
                if k == 1 {
                    assert_eq!(hit, c.abs() < 4.0, "one ulp out at {c}");
                }
                let wedge = ring(&[(tip, 0.25), (c + 1.0, 1.0), (c - 0.5, 1.0)]);
                check_window(&bx, &wedge);
            }
        }
    }

    #[test]
    fn window_keeps_endpoints_one_ulp_apart() {
        for c in [0.5, 180.0] {
            for k in [-1, 0, 1] {
                // Two collinear segments meeting end to end, 1 ulp apart
                // in x and in y, with the second one turning back over
                // the first so the MBRs overlap.
                let a = line(&[(c - 1.0, c), (c, c)]);
                let b = line(&[(ulps(c, k), c), (c - 0.5, c + 1.0)]);
                check_window(&a, &b);
                let a = line(&[(c, c - 1.0), (c, c)]);
                let b = line(&[(c, ulps(c, k)), (c + 1.0, c - 0.5)]);
                check_window(&a, &b);
            }
        }
    }

    #[test]
    fn window_keeps_collinear_overlaps() {
        assert!(check_window(
            &line(&[(0.0, 0.0), (2.0, 0.0)]),
            &line(&[(1.0, 0.0), (3.0, 0.0)])
        ));
        // Two squares sharing part of an edge, and one sharing a whole
        // edge.
        assert!(check_window(&square(0.0, 0.0, 2.0), &square(2.0, 1.0, 2.0)));
        assert!(check_window(&square(0.0, 0.0, 2.0), &square(2.0, 0.0, 2.0)));
        // Diagonal collinear overlap, at coordinates near 180.
        assert!(check_window(
            &line(&[(179.0, 89.0), (179.5, 89.5)]),
            &line(&[(179.25, 89.25), (180.0, 90.0)])
        ));
    }

    #[test]
    fn window_keeps_zero_width_mbrs() {
        // A vertical and a horizontal segment: the overlap of the MBRs
        // is a single point.
        assert!(check_window(
            &line(&[(1.0, 0.0), (1.0, 2.0)]),
            &line(&[(0.0, 1.0), (2.0, 1.0)])
        ));
        // Two vertical segments on one line, overlapping or touching.
        assert!(check_window(
            &line(&[(1.0, 0.0), (1.0, 2.0)]),
            &line(&[(1.0, 1.0), (1.0, 3.0)])
        ));
        assert!(check_window(
            &line(&[(1.0, 0.0), (1.0, 2.0)]),
            &line(&[(1.0, 2.0), (1.0, 3.0)])
        ));
        // A vertical segment under a hook's arm, apart from it.
        assert!(!check_window(
            &line(&[(1.0, 0.0), (1.0, 2.0), (3.0, 2.0)]),
            &line(&[(2.0, 0.0), (2.0, 1.5)])
        ));
        // A degenerate polygon that is one point, on a square's edge.
        assert!(check_window(
            &square(0.0, 0.0, 1.0),
            &ring(&[(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)])
        ));
    }

    #[test]
    fn window_keeps_t_touches_on_its_edge() {
        let a = square(0.0, 0.0, 1.0);
        // A stem standing on the top edge: the window is that edge.
        assert!(check_window(&a, &line(&[(0.5, 1.0), (0.5, 2.0)])));
        // A square standing on the top edge along part of it.
        assert!(check_window(&a, &square(0.25, 1.0, 0.5)));
        // A bar resting on the top edge whose ends overhang it.
        assert!(check_window(&a, &line(&[(-1.0, 1.0), (2.0, 1.0)])));
        // A stem whose foot is k ulps above the top edge, on a hook
        // that comes down beside the square: the MBRs overlap in a
        // window ending at y = 1, which the stem's edge misses by k
        // ulps. `1 + ε` is the last height the edge still holds.
        let mut hits = 0;
        for k in 0..4 {
            let stem = line(&[(0.5, ulps(1.0, k)), (0.5, 2.0), (-0.5, 2.0), (-0.5, 0.5)]);
            hits += check_window(&a, &stem) as usize;
        }
        assert_eq!(hits, 2);
        // The same near 180, where `ε` is below an ulp.
        let b = square(179.0, 89.0, 1.0);
        for k in 0..3 {
            let stem = line(&[
                (179.5, ulps(90.0, k)),
                (179.5, 91.0),
                (178.5, 91.0),
                (178.5, 89.5),
            ]);
            assert_eq!(check_window(&b, &stem), k == 0);
        }
    }

    #[test]
    fn window_equals_all_pairs_on_seeded_near_contacts() {
        // Small polygons and linestrings whose vertices sit on a coarse
        // grid near 0.5 or 180, each moved by up to 2 ulps.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut hits = 0;
        for round in 0..4000 {
            let base = if round % 2 == 0 { 0.5 } else { 180.0 };
            let mut shapes = Vec::with_capacity(2);
            for _ in 0..2 {
                let n = 2 + next(4) as usize;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut c = || ulps(base + (next(5) as f64 - 2.0) * 0.25, next(5) as i64 - 2);
                    pts.push((c(), c()));
                }
                shapes.push(if next(2) == 0 { line(&pts) } else { ring(&pts) });
            }
            hits += check_window(&shapes[0], &shapes[1]) as usize;
        }
        assert!(hits > 100, "{hits} contacts");
    }

    #[test]
    fn a_later_part_inside_the_other_geometry_intersects() {
        use crate::polygon::{MultiPolygon, Ring};
        let square_polygon = |x0: f64, y0: f64, size: f64| match square(x0, y0, size) {
            Geometry::Polygon(p) => p,
            _ => unreachable!("square builds a polygon"),
        };
        let b = square(0.0, 0.0, 10.0);
        let (far, inside) = (
            square_polygon(20.0, 20.0, 1.0),
            square_polygon(4.0, 4.0, 1.0),
        );
        let far_then_inside = MultiPolygon::new(vec![far.clone(), inside.clone()]);
        let parts = [
            Geometry::MultiPolygon(far_then_inside.clone()),
            Geometry::Collection(vec![
                Geometry::Point(Point::new(30.0, 30.0)),
                Geometry::Collection(vec![
                    Geometry::Polygon(far.clone()),
                    Geometry::Polygon(inside.clone()),
                ]),
            ]),
            Geometry::Collection(vec![
                Geometry::Point(Point::new(30.0, 30.0)),
                Geometry::Point(Point::new(5.0, 5.0)),
            ]),
            Geometry::Collection(vec![
                Geometry::Polygon(far.clone()),
                line(&[(2.0, 2.0), (3.0, 3.0)]),
            ]),
        ];
        for g in &parts {
            assert!(intersects(g, &b), "{g:?}");
            assert!(intersects(&b, g), "{g:?}");
            assert!(intersects_all_pairs(g, &b), "{g:?}");
        }
        // B inside the second member, with no edge contact: B's own
        // probe finds it.
        let around = Geometry::MultiPolygon(MultiPolygon::new(vec![
            far.clone(),
            square_polygon(-5.0, -5.0, 30.0),
        ]));
        assert!(intersects(&around, &b) && intersects(&b, &around));
        // Members far away, or in a hole of B, are disjoint from it.
        let holed = Geometry::Polygon(Polygon::new(
            square_polygon(0.0, 0.0, 10.0).exterior,
            vec![Ring::new(vec![
                Point::new(3.0, 3.0),
                Point::new(3.0, 7.0),
                Point::new(7.0, 7.0),
                Point::new(7.0, 3.0),
            ])],
        ));
        let in_hole = Geometry::MultiPolygon(far_then_inside);
        assert!(!intersects(&in_hole, &holed) && !intersects(&holed, &in_hole));
        let apart = Geometry::Collection(vec![Geometry::Polygon(far), square(12.0, 0.0, 1.0)]);
        assert!(!intersects(&apart, &b) && !intersects(&b, &apart));
    }
}
