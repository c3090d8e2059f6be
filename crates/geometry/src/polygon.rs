//! The OGC Simple Feature geometry hierarchy the paper queries over:
//! linestrings, polygons, multipolygons and (recursive) collections
//! (§2.1), plus point-in-polygon testing.

use crate::mbr::Mbr;
use crate::point::Point;
use crate::segment::Segment;

/// A polyline through two or more points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LineString {
    /// Vertices in order.
    pub points: Vec<Point>,
}

impl LineString {
    /// Creates a linestring from its vertices.
    pub fn new(points: Vec<Point>) -> Self {
        LineString { points }
    }

    /// Iterator over consecutive segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total length of the polyline (planar).
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Bounding box of all vertices.
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(&self.points)
    }

    /// True when first and last vertices coincide.
    pub fn is_closed(&self) -> bool {
        self.points.len() >= 2 && self.points.first() == self.points.last()
    }
}

/// A closed ring of points. By convention the closing vertex is *not*
/// duplicated: the edge from `points[n-1]` back to `points[0]` is
/// implicit. Exterior rings are stored counter-clockwise, holes
/// clockwise (normalised on construction via [`Ring::new`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ring {
    /// Vertices in order, without a duplicated closing vertex.
    pub points: Vec<Point>,
}

impl Ring {
    /// Creates a ring, dropping a duplicated closing vertex if present.
    /// Orientation is preserved; use [`Ring::normalised_ccw`] /
    /// [`Ring::normalised_cw`] to force a winding.
    pub fn new(mut points: Vec<Point>) -> Self {
        if points.len() >= 2 && points.first() == points.last() {
            points.pop();
        }
        Ring { points }
    }

    /// Number of vertices (and edges).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the ring has no vertices.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterator over the ring's edges, including the implicit closing
    /// edge.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.points.len();
        (0..n).map(move |i| Segment::new(self.points[i], self.points[(i + 1) % n]))
    }

    /// Twice the signed area (shoelace). Positive for counter-clockwise
    /// rings.
    pub fn signed_area2(&self) -> f64 {
        let n = self.points.len();
        if n < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.points[i];
            let q = self.points[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc
    }

    /// Unsigned planar area.
    pub fn area(&self) -> f64 {
        self.signed_area2().abs() * 0.5
    }

    /// Perimeter (planar).
    pub fn perimeter(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// True when wound counter-clockwise.
    pub fn is_ccw(&self) -> bool {
        self.signed_area2() > 0.0
    }

    /// Returns the ring with counter-clockwise winding.
    pub fn normalised_ccw(mut self) -> Ring {
        if !self.is_ccw() && self.points.len() >= 3 {
            self.points.reverse();
        }
        self
    }

    /// Returns the ring with clockwise winding.
    pub fn normalised_cw(mut self) -> Ring {
        if self.is_ccw() {
            self.points.reverse();
        }
        self
    }

    /// Bounding box.
    pub fn mbr(&self) -> Mbr {
        Mbr::from_points(&self.points)
    }

    /// Even-odd (ray casting) point-in-ring test. Points exactly on the
    /// boundary are reported as inside.
    pub fn contains_point(&self, p: &Point) -> bool {
        let n = self.points.len();
        if n < 3 {
            return false;
        }
        // Boundary check first: ray casting is unreliable exactly on
        // edges.
        for s in self.segments() {
            if s.contains_point(p) {
                return true;
            }
        }
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.points[i];
            let pj = self.points[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_cross = (pj.x - pi.x) * (p.y - pi.y) / (pj.y - pi.y) + pi.x;
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Strict interior test: true only when `p` is inside and *not* on
    /// the boundary.
    pub fn contains_point_strict(&self, p: &Point) -> bool {
        if self.points.len() < 3 {
            return false;
        }
        for s in self.segments() {
            if s.contains_point(p) {
                return false;
            }
        }
        self.contains_point(p)
    }

    /// An arbitrary point guaranteed to lie inside the ring (used by the
    /// paper's two-way point-in-polygon containment shortcut, §3.4).
    /// Returns the centroid when it is interior, otherwise probes edge
    /// midpoint offsets.
    pub fn interior_point(&self) -> Option<Point> {
        let n = self.points.len();
        if n < 3 {
            return None;
        }
        let centroid = {
            let (sx, sy) = self
                .points
                .iter()
                .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
            Point::new(sx / n as f64, sy / n as f64)
        };
        if self.contains_point_strict(&centroid) {
            return Some(centroid);
        }
        // Fall back: midpoints between the centroid and each vertex.
        for p in &self.points {
            let mid = Point::new((p.x + centroid.x) * 0.5, (p.y + centroid.y) * 0.5);
            if self.contains_point_strict(&mid) {
                return Some(mid);
            }
        }
        // Last resort: any vertex (on the boundary, still "not outside").
        self.points.first().copied()
    }
}

/// A polygon: one exterior ring plus zero or more interior rings
/// (holes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    /// Outer boundary.
    pub exterior: Ring,
    /// Holes cut out of the interior.
    pub holes: Vec<Ring>,
}

impl Polygon {
    /// Creates a polygon from an exterior ring and holes.
    pub fn new(exterior: Ring, holes: Vec<Ring>) -> Self {
        Polygon { exterior, holes }
    }

    /// Convenience constructor for a hole-free polygon from raw points.
    pub fn from_exterior(points: Vec<Point>) -> Self {
        Polygon::new(Ring::new(points), Vec::new())
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn from_mbr(mbr: &Mbr) -> Self {
        Polygon::from_exterior(mbr.corners().to_vec())
    }

    /// Planar area: exterior minus holes.
    pub fn area(&self) -> f64 {
        let holes: f64 = self.holes.iter().map(Ring::area).sum();
        (self.exterior.area() - holes).max(0.0)
    }

    /// Perimeter of all rings (planar).
    pub fn perimeter(&self) -> f64 {
        self.exterior.perimeter() + self.holes.iter().map(Ring::perimeter).sum::<f64>()
    }

    /// Bounding box (exterior only; holes cannot extend it).
    pub fn mbr(&self) -> Mbr {
        self.exterior.mbr()
    }

    /// True when `p` is inside the exterior and outside every hole
    /// (boundary counts as inside).
    pub fn contains_point(&self, p: &Point) -> bool {
        if !self.exterior.contains_point(p) {
            return false;
        }
        !self.holes.iter().any(|h| h.contains_point_strict(p))
    }

    /// Iterator over every edge of every ring.
    pub fn all_segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.exterior
            .segments()
            .chain(self.holes.iter().flat_map(|h| h.segments()))
    }

    /// Total number of vertices across all rings.
    pub fn num_points(&self) -> usize {
        self.exterior.len() + self.holes.iter().map(Ring::len).sum::<usize>()
    }
}

/// Multiple polygons treated as one geometry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiPolygon {
    /// Member polygons.
    pub polygons: Vec<Polygon>,
}

impl MultiPolygon {
    /// Creates a multipolygon.
    pub fn new(polygons: Vec<Polygon>) -> Self {
        MultiPolygon { polygons }
    }

    /// Sum of member areas.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }

    /// Sum of member perimeters.
    pub fn perimeter(&self) -> f64 {
        self.polygons.iter().map(Polygon::perimeter).sum()
    }

    /// Union of member bounding boxes.
    pub fn mbr(&self) -> Mbr {
        self.polygons
            .iter()
            .fold(Mbr::EMPTY, |acc, p| acc.union(&p.mbr()))
    }

    /// True when any member contains `p`.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains_point(p))
    }
}

/// Any supported geometry. Collections may nest recursively, mirroring
/// GeoJSON's `GeometryCollection` (Listing 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A single point.
    Point(Point),
    /// A polyline.
    LineString(LineString),
    /// A polygon with optional holes.
    Polygon(Polygon),
    /// A set of polygons.
    MultiPolygon(MultiPolygon),
    /// A recursive collection of geometries.
    Collection(Vec<Geometry>),
}

impl Geometry {
    /// Bounding box of the geometry.
    pub fn mbr(&self) -> Mbr {
        match self {
            Geometry::Point(p) => Mbr::from_point(*p),
            Geometry::LineString(ls) => ls.mbr(),
            Geometry::Polygon(p) => p.mbr(),
            Geometry::MultiPolygon(mp) => mp.mbr(),
            Geometry::Collection(gs) => gs.iter().fold(Mbr::EMPTY, |acc, g| acc.union(&g.mbr())),
        }
    }

    /// Planar area (zero for points and linestrings).
    pub fn area(&self) -> f64 {
        match self {
            Geometry::Point(_) | Geometry::LineString(_) => 0.0,
            Geometry::Polygon(p) => p.area(),
            Geometry::MultiPolygon(mp) => mp.area(),
            Geometry::Collection(gs) => gs.iter().map(Geometry::area).sum(),
        }
    }

    /// Planar perimeter (linestring length for linestrings).
    pub fn perimeter(&self) -> f64 {
        match self {
            Geometry::Point(_) => 0.0,
            Geometry::LineString(ls) => ls.length(),
            Geometry::Polygon(p) => p.perimeter(),
            Geometry::MultiPolygon(mp) => mp.perimeter(),
            Geometry::Collection(gs) => gs.iter().map(Geometry::perimeter).sum(),
        }
    }

    /// Total vertex count.
    pub fn num_points(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(ls) => ls.points.len(),
            Geometry::Polygon(p) => p.num_points(),
            Geometry::MultiPolygon(mp) => mp.polygons.iter().map(Polygon::num_points).sum(),
            Geometry::Collection(gs) => gs.iter().map(Geometry::num_points).sum(),
        }
    }

    /// True when the geometry (or any nested member) contains `p`.
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Geometry::Point(q) => q == p,
            Geometry::LineString(ls) => ls.segments().any(|s| s.contains_point(p)),
            Geometry::Polygon(poly) => poly.contains_point(p),
            Geometry::MultiPolygon(mp) => mp.contains_point(p),
            Geometry::Collection(gs) => gs.iter().any(|g| g.contains_point(p)),
        }
    }

    /// Flattens the geometry into its component polygons (recursing
    /// through collections; points/linestrings are skipped).
    pub fn polygons(&self) -> Vec<&Polygon> {
        let mut out = Vec::new();
        self.collect_polygons(&mut out);
        out
    }

    fn collect_polygons<'a>(&'a self, out: &mut Vec<&'a Polygon>) {
        match self {
            Geometry::Polygon(p) => out.push(p),
            Geometry::MultiPolygon(mp) => out.extend(mp.polygons.iter()),
            Geometry::Collection(gs) => {
                for g in gs {
                    g.collect_polygons(out);
                }
            }
            _ => {}
        }
    }

    /// Every vertex of the geometry in document order: each polygon's
    /// exterior ring, then its holes; collections depth first.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.num_points());
        for (vertices, _) in self.chains() {
            out.extend_from_slice(vertices);
        }
        out
    }

    /// The geometry's vertex runs in document order, each with whether
    /// it closes back on itself: a point is an open run of one, a
    /// linestring an open run, and each polygon yields its exterior and
    /// then its holes as closed runs. Collections are walked depth
    /// first. Nothing is allocated unless collections nest.
    pub(crate) fn chains(&self) -> Chains<'_> {
        Chains {
            next: Some(self),
            outer: [].iter(),
            members: Vec::new(),
            polygons: [].iter(),
            holes: [].iter(),
        }
    }

    /// Every edge of the geometry, in the order of [`Geometry::points`]:
    /// consecutive vertex pairs of each linestring, and each ring's
    /// edges including its closing one. Points have none.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.chains().flat_map(|(vertices, closed)| {
            let n = vertices.len();
            let edges = if closed { n } else { n.saturating_sub(1) };
            (0..edges).map(move |i| Segment::new(vertices[i], vertices[(i + 1) % n]))
        })
    }

    /// All edges of the geometry (empty for points).
    pub fn all_segments(&self) -> Vec<Segment> {
        self.segments().collect()
    }
}

/// Iterator behind [`Geometry::chains`].
pub(crate) struct Chains<'a> {
    /// The geometry to visit next, before anything on `members`: the
    /// root, until the walk starts.
    next: Option<&'a Geometry>,
    /// The unvisited members of the root, when it is a collection.
    outer: std::slice::Iter<'a, Geometry>,
    /// The unvisited members of every nested collection being walked,
    /// innermost last; they come before the rest of `outer`.
    members: Vec<std::slice::Iter<'a, Geometry>>,
    /// The unvisited members of the multipolygon being walked.
    polygons: std::slice::Iter<'a, Polygon>,
    /// The unvisited holes of the polygon being walked.
    holes: std::slice::Iter<'a, Ring>,
}

impl<'a> Chains<'a> {
    fn polygon(&mut self, p: &'a Polygon) -> (&'a [Point], bool) {
        self.holes = p.holes.iter();
        (&p.exterior.points, true)
    }
}

impl<'a> Iterator for Chains<'a> {
    type Item = (&'a [Point], bool);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(h) = self.holes.next() {
                return Some((&h.points, true));
            }
            if let Some(p) = self.polygons.next() {
                return Some(self.polygon(p));
            }
            let (g, root) = match self.next.take() {
                Some(g) => (g, true),
                None => match self.members.last_mut() {
                    Some(inner) => match inner.next() {
                        Some(g) => (g, false),
                        None => {
                            self.members.pop();
                            continue;
                        }
                    },
                    None => (self.outer.next()?, false),
                },
            };
            match g {
                Geometry::Point(p) => return Some((std::slice::from_ref(p), false)),
                Geometry::LineString(ls) => return Some((&ls.points, false)),
                Geometry::Polygon(p) => return Some(self.polygon(p)),
                Geometry::MultiPolygon(mp) => self.polygons = mp.polygons.iter(),
                Geometry::Collection(gs) if root => self.outer = gs.iter(),
                Geometry::Collection(gs) => self.members.push(gs.iter()),
            }
        }
    }
}

/// Builds the unit square polygon `[(0,0),(1,0),(1,1),(0,1)]`, a common
/// test fixture.
pub fn unit_square() -> Polygon {
    Polygon::from_exterior(vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(1.0, 1.0),
        Point::new(0.0, 1.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::from_exterior(vec![
            Point::new(cx - half, cy - half),
            Point::new(cx + half, cy - half),
            Point::new(cx + half, cy + half),
            Point::new(cx - half, cy + half),
        ])
    }

    #[test]
    fn ring_drops_duplicate_closing_vertex() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
        ]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_area_and_orientation() {
        let ccw = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert_eq!(ccw.area(), 4.0);
        assert!(ccw.is_ccw());
        let cw = ccw.clone().normalised_cw();
        assert!(!cw.is_ccw());
        assert_eq!(cw.area(), 4.0, "area is winding-independent");
        assert!(cw.normalised_ccw().is_ccw());
    }

    #[test]
    fn ring_perimeter() {
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]);
        assert_eq!(r.perimeter(), 12.0); // 3 + 4 + 5
    }

    #[test]
    fn point_in_ring() {
        let r = square(0.0, 0.0, 1.0).exterior;
        assert!(r.contains_point(&Point::new(0.0, 0.0)));
        assert!(r.contains_point(&Point::new(0.5, -0.5)));
        assert!(r.contains_point(&Point::new(1.0, 0.0)), "boundary");
        assert!(r.contains_point(&Point::new(1.0, 1.0)), "corner");
        assert!(!r.contains_point(&Point::new(1.5, 0.0)));
        assert!(!r.contains_point_strict(&Point::new(1.0, 0.0)));
        assert!(r.contains_point_strict(&Point::new(0.0, 0.0)));
    }

    #[test]
    fn point_in_concave_ring() {
        // A "C" shape: notch cut from the right side.
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(4.0, 3.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(r.contains_point(&Point::new(0.5, 2.0)), "inside spine");
        assert!(!r.contains_point(&Point::new(3.0, 2.0)), "inside notch");
        assert!(r.contains_point(&Point::new(3.0, 0.5)), "lower arm");
    }

    #[test]
    fn polygon_with_hole() {
        let hole = Ring::new(vec![
            Point::new(0.25, 0.25),
            Point::new(0.75, 0.25),
            Point::new(0.75, 0.75),
            Point::new(0.25, 0.75),
        ]);
        let poly = Polygon::new(unit_square().exterior, vec![hole]);
        assert!((poly.area() - 0.75).abs() < 1e-12);
        assert!(poly.contains_point(&Point::new(0.1, 0.1)));
        assert!(!poly.contains_point(&Point::new(0.5, 0.5)), "in hole");
        assert!(
            poly.contains_point(&Point::new(0.25, 0.5)),
            "hole boundary belongs to polygon"
        );
        assert_eq!(poly.perimeter(), 4.0 + 2.0);
        assert_eq!(poly.num_points(), 8);
    }

    #[test]
    fn multipolygon_aggregates() {
        let mp = MultiPolygon::new(vec![square(0.0, 0.0, 1.0), square(10.0, 0.0, 0.5)]);
        assert_eq!(mp.area(), 4.0 + 1.0);
        assert_eq!(mp.perimeter(), 8.0 + 4.0);
        assert!(mp.contains_point(&Point::new(10.2, 0.2)));
        assert!(!mp.contains_point(&Point::new(5.0, 0.0)));
        let mbr = mp.mbr();
        assert_eq!(mbr.min_x, -1.0);
        assert_eq!(mbr.max_x, 10.5);
    }

    #[test]
    fn nested_collection() {
        let g = Geometry::Collection(vec![
            Geometry::Point(Point::new(5.0, 5.0)),
            Geometry::Collection(vec![Geometry::Polygon(square(0.0, 0.0, 1.0))]),
            Geometry::LineString(LineString::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
            ])),
        ]);
        assert_eq!(g.area(), 4.0);
        assert_eq!(g.num_points(), 1 + 4 + 2);
        assert_eq!(g.polygons().len(), 1);
        assert!(g.contains_point(&Point::new(5.0, 5.0)));
        assert!(g.contains_point(&Point::new(0.5, 0.5)));
        let mbr = g.mbr();
        assert_eq!(mbr.max_x, 5.0);
    }

    #[test]
    fn chains_walk_nested_geometry_in_document_order() {
        let holed = Polygon::new(
            square(0.0, 0.0, 2.0).exterior,
            vec![square(0.0, 0.0, 1.0).exterior.normalised_cw()],
        );
        let line = LineString::new(vec![Point::new(7.0, 7.0), Point::new(8.0, 9.0)]);
        let g = Geometry::Collection(vec![
            Geometry::Collection(vec![]),
            Geometry::Point(Point::new(5.0, 5.0)),
            Geometry::Collection(vec![
                Geometry::MultiPolygon(MultiPolygon::new(vec![
                    holed.clone(),
                    square(9.0, 9.0, 0.5),
                ])),
                Geometry::LineString(line.clone()),
            ]),
            Geometry::Polygon(unit_square()),
        ]);

        let mut want = Vec::new();
        want.extend(holed.all_segments());
        want.extend(square(9.0, 9.0, 0.5).all_segments());
        want.extend(line.segments());
        want.extend(unit_square().all_segments());
        assert_eq!(g.segments().collect::<Vec<_>>(), want);
        assert_eq!(g.all_segments(), want);

        let mut points = vec![Point::new(5.0, 5.0)];
        points.extend(&holed.exterior.points);
        points.extend(&holed.holes[0].points);
        points.extend(&square(9.0, 9.0, 0.5).exterior.points);
        points.extend(&line.points);
        points.extend(&unit_square().exterior.points);
        assert_eq!(g.points(), points);

        let closed: Vec<bool> = g.chains().map(|(_, closed)| closed).collect();
        assert_eq!(closed, [false, true, true, true, false, true]);
    }

    #[test]
    fn chains_of_empty_and_degenerate_geometry() {
        assert_eq!(Geometry::Collection(vec![]).chains().count(), 0);
        let empty = Geometry::MultiPolygon(MultiPolygon::new(vec![]));
        assert_eq!(empty.segments().count(), 0);
        assert_eq!(Geometry::Point(Point::ORIGIN).segments().count(), 0);
        // A one-vertex ring closes on itself, as `Ring::segments` does.
        let dot = Geometry::Polygon(Polygon::from_exterior(vec![Point::ORIGIN]));
        assert_eq!(
            dot.all_segments(),
            [Segment::new(Point::ORIGIN, Point::ORIGIN)]
        );
        // A hole-only polygon yields its empty exterior, then its hole.
        let hole = square(3.0, 3.0, 1.0).exterior;
        let hole_only = Geometry::Polygon(Polygon::new(Ring::default(), vec![hole.clone()]));
        let runs: Vec<&[Point]> = hole_only.chains().map(|(v, _)| v).collect();
        assert_eq!(runs, [&[][..], &hole.points[..]]);
    }

    #[test]
    fn interior_point_is_inside() {
        let p = square(3.0, 3.0, 2.0);
        let ip = p.exterior.interior_point().unwrap();
        assert!(p.contains_point(&ip));
    }

    #[test]
    fn interior_point_concave() {
        // Centroid of this "L" falls outside; fallback probing must work.
        let r = Ring::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        let ip = r.interior_point().unwrap();
        assert!(r.contains_point(&ip));
    }

    #[test]
    fn degenerate_rings() {
        let empty = Ring::new(vec![]);
        assert_eq!(empty.area(), 0.0);
        assert!(!empty.contains_point(&Point::ORIGIN));
        let line = Ring::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert_eq!(line.area(), 0.0);
    }

    #[test]
    fn linestring_properties() {
        let ls = LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 4.0),
        ]);
        assert_eq!(ls.length(), 7.0);
        assert!(!ls.is_closed());
        assert_eq!(ls.segments().count(), 2);
    }

    fn arb_convex_ring() -> impl Strategy<Value = Ring> {
        // Random points on a circle produce a convex CCW ring.
        (3usize..20, 0.1..100.0f64).prop_map(|(n, radius)| {
            let pts = (0..n)
                .map(|i| {
                    let theta = std::f64::consts::TAU * i as f64 / n as f64;
                    Point::new(radius * theta.cos(), radius * theta.sin())
                })
                .collect();
            Ring::new(pts)
        })
    }

    proptest! {
        #[test]
        fn convex_ring_contains_origin(r in arb_convex_ring()) {
            prop_assert!(r.contains_point(&Point::ORIGIN));
            prop_assert!(r.is_ccw());
        }

        #[test]
        fn ring_area_invariant_under_rotation_of_start(r in arb_convex_ring(), k in 0usize..10) {
            let mut rotated = r.points.clone();
            let k = k % rotated.len();
            rotated.rotate_left(k);
            let r2 = Ring::new(rotated);
            prop_assert!((r.area() - r2.area()).abs() < 1e-9);
        }

        #[test]
        fn mbr_contains_all_ring_points(r in arb_convex_ring()) {
            let mbr = r.mbr();
            for p in &r.points {
                prop_assert!(mbr.contains_point(p));
            }
        }

        #[test]
        fn vertices_are_on_boundary_not_strict_interior(r in arb_convex_ring()) {
            for p in &r.points {
                prop_assert!(r.contains_point(p));
                prop_assert!(!r.contains_point_strict(p));
            }
        }
    }
}
