//! Round-trip integration tests: datasets produced by `atgis-datagen`
//! must parse back through every `atgis-formats` path (GeoJSON PAT and
//! FAT, all three serialisations) with identical geometry.

use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator, SynthConfig};
use atgis_formats::{number, parse_all, Format, MetadataFilter, Mode};

#[test]
fn geojson_pat_roundtrip() {
    let ds = OsmGenerator::new(100).generate(200);
    let bytes = write_geojson(&ds);
    let features = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    assert_eq!(features.len(), ds.objects.len());
    for (f, o) in features.iter().zip(&ds.objects) {
        assert_eq!(f.id, o.id);
        assert_eq!(f.geometry.num_points(), o.geometry.num_points());
        let d = (f.geometry.area() - o.geometry.area()).abs();
        assert!(d < 1e-6, "area drift {d} on object {}", o.id);
    }
}

#[test]
fn geojson_fat_matches_pat() {
    let ds = OsmGenerator::new(101).generate(150);
    let bytes = write_geojson(&ds);
    let pat = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(&bytes, Format::GeoJson, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat, fat);
}

#[test]
fn wkt_pat_and_fat_roundtrip() {
    let ds = OsmGenerator::new(102).generate(150);
    let bytes = write_wkt(&ds);
    let pat = parse_all(&bytes, Format::Wkt, Mode::Pat, &MetadataFilter::All).unwrap();
    // WKT ignores the mode: both route to the one row parser.
    let fat = parse_all(&bytes, Format::Wkt, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat.len(), ds.objects.len());
    assert_eq!(pat, fat);
    for (f, o) in pat.iter().zip(&ds.objects) {
        assert_eq!(f.id, o.id);
        assert_eq!(f.geometry.num_points(), o.geometry.num_points());
    }
}

#[test]
fn osm_xml_roundtrip_preserves_geometry() {
    let ds = OsmGenerator::new(103).generate(100);
    let bytes = write_osm_xml(&ds);
    let features = parse_all(&bytes, Format::OsmXml, Mode::Pat, &MetadataFilter::All).unwrap();
    // Collections are flattened into several ways, so counts can grow;
    // every non-collection object must be recoverable by id.
    for o in &ds.objects {
        use atgis_geometry::Geometry;
        if matches!(o.geometry, Geometry::Collection(_)) {
            continue;
        }
        let f = features
            .iter()
            .find(|f| f.id == o.id)
            .unwrap_or_else(|| panic!("object {} missing from XML round-trip", o.id));
        let d = (f.geometry.area() - o.geometry.area()).abs();
        assert!(d < 1e-6, "area drift {d} on object {}", o.id);
    }
}

#[test]
fn synth_dataset_roundtrips_through_geojson() {
    let ds = SynthConfig {
        objects: 60,
        sigma: 2.0,
        ..Default::default()
    }
    .generate();
    let bytes = write_geojson(&ds);
    let pat = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(&bytes, Format::GeoJson, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat.len(), 60);
    assert_eq!(pat, fat);
}

#[test]
fn cross_format_geometry_agreement() {
    // The same dataset serialised as GeoJSON and WKT must parse to the
    // same geometries (XML differs only for collections).
    let ds = OsmGenerator::new(104).generate(80);
    let geojson = parse_all(
        &write_geojson(&ds),
        Format::GeoJson,
        Mode::Pat,
        &MetadataFilter::All,
    )
    .unwrap();
    let wkt = parse_all(
        &write_wkt(&ds),
        Format::Wkt,
        Mode::Pat,
        &MetadataFilter::All,
    )
    .unwrap();
    assert_eq!(geojson.len(), wkt.len());
    for (g, w) in geojson.iter().zip(&wkt) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.geometry, w.geometry);
    }
}

/// Every number the generators write, in all three formats over a seed
/// sweep: whenever the exact decimal scanner accepts a text, its value
/// has the bits of std's parse.
#[test]
fn decimal_scanner_matches_std_on_generated_coordinates() {
    let is_number_byte =
        |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
    let (mut accepted, mut declined) = (0, 0);
    for seed in 0..16 {
        let ds = OsmGenerator::new(seed).generate(60);
        for bytes in [write_geojson(&ds), write_wkt(&ds), write_osm_xml(&ds)] {
            for span in bytes
                .split(|b| !is_number_byte(b))
                .filter(|s| !s.is_empty())
            {
                let Some(got) = number::decimal(span) else {
                    declined += 1;
                    continue;
                };
                let text = std::str::from_utf8(span).unwrap();
                let want: f64 = text.parse().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{text:?} (seed {seed})");
                accepted += 1;
            }
        }
    }
    assert!(
        accepted > 50_000,
        "only {accepted} numbers took the fast path ({declined} declined)"
    );
}
