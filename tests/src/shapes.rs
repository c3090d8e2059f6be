//! Seeded random shapes for the predicate sweeps in `tests/tests/`:
//! rectangles (in and out of `Polygon::from_mbr`'s vertex order),
//! convex and star-shaped concave polygons, Ls and boxes with holes as
//! regions; points, linestrings, polygons with and without holes,
//! multipolygons and nested collections as features, some of them
//! anchored on a vertex, an edge midpoint or a ring's centre of a
//! region. Coordinates sit mostly on a half-unit grid, so exact
//! contacts and zero-width MBRs are common.

use crate::XorShift64;
use atgis_geometry::{Geometry, LineString, Mbr, MultiPolygon, Point, Polygon};

/// The shape generator, over the torture RNG.
pub struct Gen(pub XorShift64);

impl Gen {
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n)
    }

    /// Uniform in `[lo, hi)`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// A multiple of 0.5 in [-4, 4], or now and then any float.
    pub fn coord(&mut self) -> f64 {
        if self.below(5) < 4 {
            (self.below(17) as f64 - 8.0) * 0.5
        } else {
            self.float(-4.5, 4.5)
        }
    }

    pub fn point(&mut self) -> Point {
        Point::new(self.coord(), self.coord())
    }

    pub fn rect(&mut self) -> Polygon {
        let (a, b) = (self.point(), self.point());
        Polygon::from_mbr(&Mbr::from_point(a).expanded_to(b))
    }

    /// Vertices around `self.point()`, at one radius (convex) or a
    /// radius per vertex (star-shaped, usually concave).
    pub fn star(&mut self, concave: bool) -> Polygon {
        let c = self.point();
        let n = 3 + self.below(6);
        let r = self.float(0.25, 3.0);
        let phase = self.float(0.0, 6.3);
        let points = (0..n)
            .map(|i| {
                let theta = phase + std::f64::consts::TAU * i as f64 / n as f64;
                let r = if concave { r * self.float(0.3, 1.0) } else { r };
                Point::new(c.x + r * theta.cos(), c.y + r * theta.sin())
            })
            .collect();
        Polygon::from_exterior(points)
    }

    /// An L: a box at a grid point with its upper-right part cut away.
    pub fn l_shape(&mut self) -> Polygon {
        let o = self.point();
        let (w, h) = (
            1.0 + self.below(6) as f64 * 0.5,
            1.0 + self.below(6) as f64 * 0.5,
        );
        let t = 0.5 * (1 + self.below(((w.min(h) - 0.5) * 2.0) as usize)) as f64;
        Polygon::from_exterior(vec![
            o,
            Point::new(o.x + w, o.y),
            Point::new(o.x + w, o.y + t),
            Point::new(o.x + t, o.y + t),
            Point::new(o.x + t, o.y + h),
            Point::new(o.x, o.y + h),
        ])
    }

    /// A box with a half-unit box hole strictly inside it.
    pub fn holed(&mut self) -> Polygon {
        let o = self.point();
        let (w, h) = (
            1.5 + self.below(7) as f64 * 0.5,
            1.5 + self.below(7) as f64 * 0.5,
        );
        let hx = o.x + 0.5 + self.float(0.0, w - 1.5);
        let hy = o.y + 0.5 + self.float(0.0, h - 1.5);
        let hole = Polygon::from_mbr(&Mbr::new(hx, hy, hx + 0.5, hy + 0.5));
        Polygon::new(
            Polygon::from_mbr(&Mbr::new(o.x, o.y, o.x + w, o.y + h)).exterior,
            vec![hole.exterior.normalised_cw()],
        )
    }

    pub fn region(&mut self) -> Polygon {
        match self.below(6) {
            0 | 1 => self.rect(),
            2 => {
                let mut p = self.rect();
                p.exterior.points.rotate_left(1 + self.below(3));
                p
            }
            3 => {
                let concave = self.below(2) == 0;
                self.star(concave)
            }
            4 => self.l_shape(),
            _ => self.holed(),
        }
    }

    pub fn linestring(&mut self) -> LineString {
        if self.below(4) == 0 {
            // Axis-parallel: a zero-width MBR.
            let (a, b, c) = (self.coord(), self.coord(), self.coord());
            let (p, q) = if self.below(2) == 0 {
                (Point::new(a, b), Point::new(a, c))
            } else {
                (Point::new(b, a), Point::new(c, a))
            };
            return LineString::new(vec![p, q]);
        }
        let n = 1 + self.below(4);
        LineString::new((0..n).map(|_| self.point()).collect())
    }

    pub fn polygon(&mut self) -> Polygon {
        match self.below(5) {
            0 | 1 => self.rect(),
            2 => {
                let concave = self.below(2) == 0;
                self.star(concave)
            }
            3 => self.holed(),
            _ => {
                let n = 3 + self.below(4);
                Polygon::from_exterior((0..n).map(|_| self.point()).collect())
            }
        }
    }

    pub fn leaf(&mut self) -> Geometry {
        match self.below(3) {
            0 => Geometry::Point(self.point()),
            1 => Geometry::LineString(self.linestring()),
            _ => Geometry::Polygon(self.polygon()),
        }
    }

    pub fn feature(&mut self) -> Geometry {
        match self.below(10) {
            0..=5 => self.leaf(),
            6 | 7 => {
                let n = self.below(4);
                Geometry::MultiPolygon(MultiPolygon::new((0..n).map(|_| self.polygon()).collect()))
            }
            8 => {
                let n = self.below(4);
                Geometry::Collection((0..n).map(|_| self.leaf()).collect())
            }
            _ => {
                let n = self.below(3);
                let inner = Geometry::Collection((0..n).map(|_| self.leaf()).collect());
                Geometry::Collection(vec![inner, self.leaf()])
            }
        }
    }

    /// A point, a segment or a box from a vertex, an edge midpoint or
    /// the MBR centre of one of the region's rings (the last, small,
    /// so that it often lies strictly inside a hole or a notch).
    pub fn anchored(&mut self, region: &Polygon) -> Geometry {
        let ring = if region.holes.is_empty() || self.below(2) == 0 {
            &region.exterior
        } else {
            &region.holes[0]
        };
        let n = ring.points.len();
        let i = self.below(n);
        let (a, b) = (ring.points[i], ring.points[(i + 1) % n]);
        let (p, scale) = match self.below(3) {
            0 => (a, 1.0),
            1 => (Point::new((a.x + b.x) * 0.5, (a.y + b.y) * 0.5), 1.0),
            _ => (ring.mbr().center(), 0.1),
        };
        let q = Point::new(p.x + self.coord() * scale, p.y + self.coord() * scale);
        match self.below(3) {
            0 => Geometry::Point(p),
            1 => Geometry::LineString(LineString::new(vec![p, q])),
            _ => Geometry::Polygon(Polygon::from_mbr(&Mbr::from_point(p).expanded_to(q))),
        }
    }
}
