//! Seeded sweep of `relate::intersects` against a reference written
//! here from public primitives only: the MBR check, every edge pair
//! through `segments_intersect`, then one vertex of every vertex run
//! of either side probed with the other side's `contains_point`.
//! 24 000 random pairs per run, drawn from the torture RNG; the seed
//! is printed, replay a failure with `ATGIS_FAULT_SEED=<seed>`. CI runs
//! it under fresh seeds.
//!
//! The pairs are two features, or a feature and a region, from
//! `atgis_tests::shapes`. A quarter of the features are anchored on a
//! vertex, an edge midpoint or a ring's centre of a region, so many
//! contacts are exact; the windowed edge test of `intersects` must
//! never skip one.

use atgis_geometry::relate::intersects;
use atgis_geometry::{segments_intersect, Geometry, Point, Polygon};
use atgis_tests::shapes::Gen;
use atgis_tests::XorShift64;

const PAIRS: usize = 24_000;

/// The first vertex of every vertex run of `g`: each point, each
/// linestring, and each ring (exterior and holes) of every polygon.
fn run_starts(g: &Geometry, out: &mut Vec<Point>) {
    match g {
        Geometry::Point(p) => out.push(*p),
        Geometry::LineString(ls) => out.extend(ls.points.first()),
        Geometry::Polygon(p) => polygon_starts(p, out),
        Geometry::MultiPolygon(mp) => mp.polygons.iter().for_each(|p| polygon_starts(p, out)),
        Geometry::Collection(members) => members.iter().for_each(|m| run_starts(m, out)),
    }
}

fn polygon_starts(p: &Polygon, out: &mut Vec<Point>) {
    out.extend(p.exterior.points.first());
    out.extend(p.holes.iter().filter_map(|h| h.points.first()));
}

fn probes(a: &Geometry, b: &Geometry) -> bool {
    let mut starts = Vec::new();
    run_starts(a, &mut starts);
    starts.iter().any(|p| b.contains_point(p))
}

fn reference(a: &Geometry, b: &Geometry) -> bool {
    a.mbr().intersects(&b.mbr())
        && (a
            .segments()
            .any(|sa| b.segments().any(|sb| segments_intersect(&sa, &sb)))
            || probes(a, b)
            || probes(b, a))
}

#[test]
fn relate_intersects_agrees_with_all_pairs_reference_under_seeded_sweep() {
    let mut gen = Gen(XorShift64::from_env());
    let mut hits = 0usize;
    for pair in 0..PAIRS {
        let region = gen.region();
        let a = if gen.below(4) == 0 {
            gen.anchored(&region)
        } else {
            gen.feature()
        };
        let b = if gen.below(2) == 0 {
            Geometry::Polygon(region)
        } else {
            gen.feature()
        };
        let want = reference(&a, &b);
        assert_eq!(intersects(&a, &b), want, "pair {pair}: {a:?}\n{b:?}");
        assert_eq!(intersects(&b, &a), want, "pair {pair}: {b:?}\n{a:?}");
        hits += want as usize;
    }
    // Both answers must be common, or the sweep proves little.
    assert!(
        hits > PAIRS / 10 && hits < PAIRS * 9 / 10,
        "{hits} of {PAIRS} intersect"
    );
}
