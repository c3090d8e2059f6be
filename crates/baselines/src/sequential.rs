//! The sequential baseline: one thread, one parse pass, no index —
//! the floor against which parallel speedups are measured.

use crate::{answer_aggregation, answer_containment, BaselineAnswer, BaselineQuery};
use atgis_formats::{geojson, parse_all, Format, MetadataFilter, Mode, ParseError};
use atgis_geometry::relate::intersects;

/// Executes a query with a single sequential scan over the raw bytes.
/// GeoJSON is lexed from the document start as one FAT block, so a
/// Feature-shaped object inside `properties` or before the features
/// array is never taken for a feature, as a marker split would.
pub fn execute(
    input: &[u8],
    format: Format,
    query: &BaselineQuery,
) -> Result<BaselineAnswer, ParseError> {
    let all = MetadataFilter::All;
    let features = match format {
        Format::GeoJson => geojson::parse_fat(input, &all, 1)?,
        _ => parse_all(input, format, Mode::Pat, &all)?,
    };
    Ok(match query {
        BaselineQuery::Containment(region) => answer_containment(&features, region),
        BaselineQuery::Aggregation(region) => answer_aggregation(&features, region),
        BaselineQuery::Join(threshold) => {
            // Nested-loop join with an MBR pre-filter — the naive plan
            // a system without spatial partitioning executes.
            let mut pairs = Vec::new();
            for a in features.iter().filter(|f| f.id < *threshold) {
                let am = a.geometry.mbr();
                for b in features.iter().filter(|f| f.id >= *threshold) {
                    if am.intersects(&b.geometry.mbr()) && intersects(&a.geometry, &b.geometry) {
                        pairs.push((a.id, b.id));
                    }
                }
            }
            pairs.sort_unstable();
            BaselineAnswer::Pairs(pairs)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_datagen::{write_geojson, OsmGenerator};
    use atgis_geometry::Mbr;

    #[test]
    fn containment_counts() {
        let ds = OsmGenerator::new(20).generate(50);
        let bytes = write_geojson(&ds);
        let world = BaselineQuery::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        match execute(&bytes, Format::GeoJson, &world).unwrap() {
            BaselineAnswer::Matches(ids) => assert_eq!(ids.len(), 50),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_respects_threshold() {
        let ds = OsmGenerator::new(21).generate(40);
        let bytes = write_geojson(&ds);
        match execute(&bytes, Format::GeoJson, &BaselineQuery::Join(20)).unwrap() {
            BaselineAnswer::Pairs(pairs) => {
                for (l, r) in pairs {
                    assert!(l < 20 && r >= 20);
                }
            }
            other => panic!("{other:?}"),
        }
    }

    const REAL: &str = concat!(
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[3.0,4.0]},"id":2,"properties":{}}"#,
        r#"]}"#
    );

    fn world() -> BaselineQuery {
        BaselineQuery::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0))
    }

    #[test]
    fn feature_shaped_property_is_not_a_feature() {
        // Legal GeoJSON whose first feature holds the marker bytes in a
        // nested properties object.
        let doc = [
            r#"{"type":"FeatureCollection","features":["#,
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"#,
            r#""properties":{"trap":{"type":"Feature","x":1},"name":"decoy"}},"#,
            REAL,
        ]
        .concat();
        match execute(doc.as_bytes(), Format::GeoJson, &world()) {
            Ok(BaselineAnswer::Matches(ids)) => assert_eq!(ids, [1, 2]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn feature_shaped_preamble_member_is_not_invented() {
        // A complete Feature as a foreign member before the features
        // array: the oracle must not report its id 99.
        let doc = [
            r#"{"type":"FeatureCollection","meta":"#,
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[9.0,9.0]},"id":99,"properties":{}},"#,
            r#""features":["#,
            REAL,
        ]
        .concat();
        let got = execute(doc.as_bytes(), Format::GeoJson, &world());
        assert!(matches!(got, Err(ParseError::Desync { .. })), "{got:?}");
    }
}
