//! Planar and spherical geometry substrate for AT-GIS.
//!
//! This crate replaces the role Boost::Geometry plays in the original
//! AT-GIS prototype (Ogden et al., SIGMOD 2016). It provides:
//!
//! * primitive types ([`Point`], [`Mbr`], [`Segment`], [`Ring`],
//!   [`Polygon`], [`MultiPolygon`], [`Geometry`]) matching the OGC Simple
//!   Feature Access hierarchy the paper queries over (§2.1);
//! * spatial predicates (`intersects`, `contains`, `within`, `touches`,
//!   `crosses`, `overlaps`, `disjoint`, DE-9IM `relate`) used by the
//!   Table 1 operator catalogue. They treat geometries as closed sets:
//!   touching boundaries intersect, to the tolerance of
//!   [`segment::orientation`] and [`Segment::contains_point`].
//!   [`relate::intersects`] is the one refine kernel: it tests only the
//!   edge pairs whose MBRs meet the widened overlap of the two
//!   geometries' MBRs (never skipping a pair the edge test accepts),
//!   probes one vertex of every vertex run each way, and allocates
//!   nothing unless collections nest;
//! * [`PreparedRegion`], a query region set up once per query so the
//!   scan's region filter decides most features from their MBR and
//!   calls `relate::intersects` only for features whose MBR straddles
//!   the region's edge;
//! * measures (area, perimeter, distance) in both planar and spherical
//!   coordinate systems, including Andoyer's more accurate geodesic
//!   formula used by the Fig. 13b experiment;
//! * set-theoretic operations (intersection, union, difference,
//!   symmetric difference, buffer) on polygons;
//! * convex hulls, envelopes, boundaries and simplicity tests.
//!
//! All algorithms are written to be *edge-streamable* where the paper
//! requires it: predicates that Table 1 classifies as "in shape"
//! associative expose incremental edge-at-a-time state so they can be
//! wrapped in periodically flushing transducers.
//!
//! See `ARCHITECTURE.md` at the repository root for how this crate
//! fits into the workspace as the geometry support crate of the four-layer design,
//! plus the ingest → seal → query lifecycle and the data flow of a
//! scheduled batch.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod boundary;
pub mod hull;
pub mod mbr;
pub mod measures;
pub mod point;
pub mod polygon;
pub mod prepared;
pub mod relate;
pub mod segment;
pub mod setops;
pub mod sphere;

pub use boundary::{boundary, is_simple};
pub use hull::convex_hull;
pub use mbr::Mbr;
pub use measures::{perimeter, planar_area, signed_ring_area, DistanceModel};
pub use point::Point;
pub use polygon::{Geometry, LineString, MultiPolygon, Polygon, Ring};
pub use prepared::PreparedRegion;
pub use relate::{
    contains, crosses, disjoint, distance, intersects, overlaps, relate, touches, within, De9Im,
    IntersectionMatrix,
};
pub use segment::{segment_intersection, segments_intersect, Orientation, Segment};
pub use setops::{buffer, difference, intersection, sym_difference, union};
