//! Seeded sweep of `PreparedRegion::intersects` against its reference,
//! `relate::intersects`: 24 000 random (region, feature) pairs per run,
//! drawn from the torture RNG. The seed is printed; replay a failure
//! with `ATGIS_FAULT_SEED=<seed>`. CI runs it under fresh seeds.
//!
//! The shapes come from `atgis_tests::shapes`; a quarter of the
//! features are placed on a vertex, an edge midpoint or a ring's centre
//! of the region.
//!
//! A second sweep checks the distributive law on the multi-part
//! features: a collection or multipolygon meets the region exactly
//! when one of its parts does. The law needs no reference, so it also
//! catches a defect the predicate and its reference share.

use atgis_geometry::relate::intersects;
use atgis_geometry::{Geometry, PreparedRegion};
use atgis_tests::shapes::Gen;
use atgis_tests::XorShift64;

const PAIRS: usize = 24_000;
const FEATURES_PER_REGION: usize = 8;

#[test]
fn prepared_region_agrees_with_relate_under_seeded_sweep() {
    let mut gen = Gen(XorShift64::from_env());
    let (mut hits, mut pairs) = (0usize, 0usize);
    while pairs < PAIRS {
        let region = gen.region();
        let prepared = PreparedRegion::new(region.clone());
        let reference = Geometry::Polygon(region.clone());
        for _ in 0..FEATURES_PER_REGION {
            let g = if gen.below(4) == 0 {
                gen.anchored(&region)
            } else {
                gen.feature()
            };
            let want = intersects(&g, &reference);
            assert_eq!(
                prepared.intersects(&g, &g.mbr()),
                want,
                "pair {pairs}: feature {g:?}\nregion {region:?}"
            );
            hits += want as usize;
            pairs += 1;
        }
    }
    // Both answers must be common, or the sweep proves little.
    assert!(
        hits > PAIRS / 10 && hits < PAIRS * 9 / 10,
        "{hits} of {PAIRS} intersect"
    );
}

/// The parts `g` is the union of: a collection's members, a
/// multipolygon's polygons.
fn parts(g: &Geometry) -> Option<Vec<Geometry>> {
    match g {
        Geometry::Collection(members) => Some(members.clone()),
        Geometry::MultiPolygon(mp) => {
            Some(mp.polygons.iter().cloned().map(Geometry::Polygon).collect())
        }
        _ => None,
    }
}

#[test]
fn prepared_region_distributes_over_parts_under_seeded_sweep() {
    let mut gen = Gen(XorShift64::from_env());
    let (mut hits, mut wholes) = (0usize, 0usize);
    while wholes < PAIRS / 4 {
        let region = gen.region();
        let prepared = PreparedRegion::new(region.clone());
        for _ in 0..FEATURES_PER_REGION {
            let g = gen.feature();
            let Some(parts) = parts(&g) else { continue };
            let whole = prepared.intersects(&g, &g.mbr());
            let any = parts.iter().any(|p| prepared.intersects(p, &p.mbr()));
            assert_eq!(whole, any, "feature {g:?}\nregion {region:?}");
            hits += whole as usize;
            wholes += 1;
        }
    }
    assert!(hits > wholes / 10, "{hits} of {wholes} intersect");
}
