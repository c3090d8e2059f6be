//! Golden-fixture round-trips: small checked-in GeoJSON / WKT /
//! OSM-XML files with known contents, parsed by both execution paths
//! (PAT's marker-split blocks and FAT's arbitrary-offset blocks).
//! Both must yield identical feature counts and MBRs, and those must
//! match the hand-computed expectations pinned here — guarding the
//! parsers against silent dialect drift.

use atgis_formats::{parse_all, Format, MetadataFilter, Mode, RawFeature};
use atgis_geometry::Mbr;

const GEOJSON: &[u8] = include_bytes!("../fixtures/small.geojson");
const WKT: &[u8] = include_bytes!("../fixtures/small.wkt");
const OSM: &[u8] = include_bytes!("../fixtures/small.osm");

/// `(id, mbr)` pairs sorted by id.
fn summarize(features: &[RawFeature]) -> Vec<(u64, Mbr)> {
    let mut v: Vec<(u64, Mbr)> = features.iter().map(|f| (f.id, f.geometry.mbr())).collect();
    v.sort_by_key(|(id, _)| *id);
    v
}

/// The four objects all three fixtures encode.
fn expected() -> Vec<(u64, Mbr)> {
    vec![
        (1, Mbr::new(0.0, 0.0, 2.0, 2.0)),
        (2, Mbr::new(5.5, -3.25, 5.5, -3.25)),
        (3, Mbr::new(-1.0, -1.0, 3.0, 1.0)),
        (4, Mbr::new(10.0, 10.0, 13.0, 11.0)),
    ]
}

fn assert_matches(got: &[(u64, Mbr)], want: &[(u64, Mbr)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: feature count");
    for ((gid, gm), (wid, wm)) in got.iter().zip(want) {
        assert_eq!(gid, wid, "{label}: id");
        for (g, w) in [
            (gm.min_x, wm.min_x),
            (gm.min_y, wm.min_y),
            (gm.max_x, wm.max_x),
            (gm.max_y, wm.max_y),
        ] {
            assert!(
                (g - w).abs() < 1e-9,
                "{label}: id {gid} mbr {gm:?} vs {wm:?}"
            );
        }
    }
}

#[test]
fn geojson_fixture_fast_and_fat_agree_with_golden() {
    let pat = parse_all(GEOJSON, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(GEOJSON, Format::GeoJson, Mode::Fat, &MetadataFilter::All).unwrap();
    let want = expected();
    assert_matches(&summarize(&pat), &want, "geojson/pat");
    assert_matches(&summarize(&fat), &want, "geojson/fat");
    assert_eq!(summarize(&pat), summarize(&fat), "fast vs fat path");
}

#[test]
fn wkt_fixture_fast_and_fat_agree_with_golden() {
    // WKT has a single row parser; both modes must route to it.
    let pat = parse_all(WKT, Format::Wkt, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(WKT, Format::Wkt, Mode::Fat, &MetadataFilter::All).unwrap();
    let want = expected();
    assert_matches(&summarize(&pat), &want, "wkt/pat");
    assert_eq!(pat, fat, "modes route to the same parser");
}

#[test]
fn osm_fixture_agrees_with_golden() {
    // XML has a single parse path; both modes must route to it and
    // agree with the golden expectations. The multipolygon relation's
    // member ways (ids ≥ 2e9) are consumed by the relation and not
    // reported standalone.
    let pat = parse_all(OSM, Format::OsmXml, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(OSM, Format::OsmXml, Mode::Fat, &MetadataFilter::All).unwrap();
    let want = expected()
        .into_iter()
        .filter(|(id, _)| *id != 2) // the lone point has no XML form
        .collect::<Vec<_>>();
    let strip = |fs: &[RawFeature]| {
        let mut v = summarize(fs);
        v.retain(|(id, _)| *id < 2_000_000_000);
        v
    };
    assert_matches(&strip(&pat), &want, "osm");
    assert_eq!(strip(&pat), strip(&fat), "modes route to the same parser");
}

#[test]
fn formats_agree_with_each_other_on_the_fixture() {
    let g = parse_all(GEOJSON, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let w = parse_all(WKT, Format::Wkt, Mode::Pat, &MetadataFilter::All).unwrap();
    assert_eq!(summarize(&g), summarize(&w), "geojson vs wkt fixture");
}
