//! GeoJSON parsing (the paper's primary format, §2.2).
//!
//! GeoJSON "encompasses many features that make parallel processing
//! challenging, such as a recursive definition and support for
//! arbitrary metadata" — geometries nest through
//! `GeometryCollection`s and free-form `properties` make naive
//! string-based splitting unsound.
//!
//! Two execution modes, one feature parser ([`fast`], our RapidJSON
//! stand-in):
//!
//! * [`parse_fat`] — fully associative: fixed-offset blocks. A
//!   tape-free pass of the 3-state string lexer ([`lexer`]) resolves
//!   every block's lexer state and bracket depth, then each block is
//!   parsed once from its known state ([`fat`]).
//! * [`parse_pat`] — partially associative: blocks are aligned on the
//!   `{"type":"Feature"` marker (§3.5's example) and handed to the
//!   block-local recursive-descent parser.
//!
//! [`lexer::lex_block`] and [`lexer::lex_known`] still produce
//! token tapes; they are the reference oracle, not the engine path.

pub mod fast;
pub mod fat;
pub mod lexer;

use crate::feature::{MetadataFilter, RawFeature};
use crate::split::{fixed_blocks, marker_blocks};
use crate::ParseError;

/// The PAT split marker: every generated feature object begins with
/// this byte string (its final quote excludes the `FeatureCollection`
/// preamble).
pub const FEATURE_MARKER: &[u8] = b"{\"type\":\"Feature\"";

/// Parses a whole GeoJSON document in PAT mode using `blocks` marker-
/// aligned blocks processed sequentially (the parallel executor lives
/// in `atgis-core`).
pub fn parse_pat(input: &[u8], filter: &MetadataFilter) -> Result<Vec<RawFeature>, ParseError> {
    let mut out = Vec::new();
    for block in marker_blocks(input, FEATURE_MARKER, 4) {
        fast::parse_block(input, block.start, block.end, filter, &mut out)?;
    }
    Ok(out)
}

/// Parses a whole GeoJSON document in FAT mode over `blocks`
/// fixed-offset blocks, sequentially: the state maps of every block,
/// their prefix pass, then one known-state parse per block with the
/// fragments merged in order.
pub fn parse_fat(
    input: &[u8],
    filter: &MetadataFilter,
    blocks: usize,
) -> Result<Vec<RawFeature>, ParseError> {
    let Some(depth) = fat::feature_depth(input, 0, input.len()) else {
        return Ok(Vec::new());
    };
    let blocks = fixed_blocks(input.len(), blocks);
    let maps: Vec<_> = blocks
        .iter()
        .map(|b| fat::StateMap::of(b.slice(input)))
        .collect();
    let entries = fat::entries(&maps, fat::Entry::START);
    let cx = fat::Ctx {
        input,
        depth,
        filter,
        complete: true,
    };
    let mut out = Vec::new();
    let mut merged: Option<fat::BlockScan> = None;
    for (block, &entry) in blocks.iter().zip(&entries) {
        let mut features = Vec::new();
        let scan = fat::BlockScan::run(&cx, *block, entry, &mut |f| features.push(f));
        merged = Some(match merged {
            None => {
                out = features;
                scan
            }
            Some(left) => {
                let (m, took_right) = left.merge(scan, &cx, &mut |f| out.push(f))?;
                if took_right {
                    out.append(&mut features);
                }
                m
            }
        });
    }
    if let Some(m) = merged {
        m.finish(&cx, &mut |f| out.push(f))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_geometry::Geometry;

    /// A small handwritten document exercising every geometry type and
    /// the recursive collection case of Listing 1.
    pub(crate) const SAMPLE: &str = concat!(
        r#"{"type":"FeatureCollection","features":["#,
        r#"{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,1.0],[0.0,0.0]]]},"id":1,"properties":{"name":"sq","building":"yes"}},"#,
        r#"{"type":"Feature","geometry":{"type":"LineString","coordinates":[[1.1,0.0],[1.2,1.0]]},"id":2,"properties":{}},"#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[5.0,6.0]},"id":3,"properties":{"name":"pt"}},"#,
        r#"{"type":"Feature","geometry":{"type":"MultiPolygon","coordinates":[[[[2.0,2.0],[3.0,2.0],[3.0,3.0],[2.0,2.0]]],[[[4.0,4.0],[5.0,4.0],[5.0,5.0],[4.0,4.0]]]]},"id":4,"properties":{"building":"no"}},"#,
        r#"{"type":"Feature","geometry":{"type":"GeometryCollection","geometries":[{"type":"GeometryCollection","geometries":[{"type":"Point","coordinates":[9.0,9.0]}]},{"type":"LineString","coordinates":[[1.1,0.0],[1.2,1.0]]}]},"id":1234,"properties":{"note":"listing one"}}"#,
        r#"]}"#
    );

    fn check_sample(features: &[RawFeature]) {
        assert_eq!(features.len(), 5);
        assert_eq!(features[0].id, 1);
        match &features[0].geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.exterior.len(), 4);
                assert!((p.area() - 1.0).abs() < 1e-12);
            }
            g => panic!("feature 1 should be a polygon, got {g:?}"),
        }
        assert!(matches!(features[1].geometry, Geometry::LineString(_)));
        assert!(matches!(features[2].geometry, Geometry::Point(_)));
        match &features[3].geometry {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.polygons.len(), 2),
            g => panic!("feature 4 should be a multipolygon, got {g:?}"),
        }
        assert_eq!(features[4].id, 1234);
        match &features[4].geometry {
            Geometry::Collection(gs) => {
                assert_eq!(gs.len(), 2);
                assert!(
                    matches!(gs[0], Geometry::Collection(_)),
                    "nested collection"
                );
            }
            g => panic!("feature 5 should be a collection, got {g:?}"),
        }
    }

    #[test]
    fn pat_parses_sample() {
        let f = parse_pat(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        check_sample(&f);
    }

    #[test]
    fn fat_parses_sample_single_block() {
        let f = parse_fat(SAMPLE.as_bytes(), &MetadataFilter::All, 1).unwrap();
        check_sample(&f);
    }

    #[test]
    fn fat_parses_sample_any_block_count() {
        for blocks in 2..24 {
            let f = parse_fat(SAMPLE.as_bytes(), &MetadataFilter::All, blocks).unwrap();
            check_sample(&f);
        }
    }

    #[test]
    fn fat_and_pat_agree() {
        let a = parse_pat(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        let b = parse_fat(SAMPLE.as_bytes(), &MetadataFilter::All, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_filter_pushdown() {
        let filter = MetadataFilter::KeyEquals {
            key: "building".into(),
            value: "yes".into(),
        };
        let pat = parse_pat(SAMPLE.as_bytes(), &filter).unwrap();
        assert_eq!(pat.len(), 1);
        assert_eq!(pat[0].id, 1);
        let fat = parse_fat(SAMPLE.as_bytes(), &filter, 5).unwrap();
        assert_eq!(pat, fat);
    }

    #[test]
    fn id_filter_pushdown() {
        let filter = MetadataFilter::IdBelow(3);
        let pat = parse_pat(SAMPLE.as_bytes(), &filter).unwrap();
        assert_eq!(pat.iter().map(|f| f.id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn offsets_allow_reparsing() {
        let input = SAMPLE.as_bytes();
        let features = parse_pat(input, &MetadataFilter::All).unwrap();
        for f in &features {
            let span = &input[f.offset as usize..f.offset as usize + f.len as usize];
            assert!(span.starts_with(FEATURE_MARKER));
            // Re-parse the span as a standalone block.
            let mut again = Vec::new();
            fast::parse_block(
                input,
                f.offset as usize,
                (f.offset + f.len as u64) as usize,
                &MetadataFilter::All,
                &mut again,
            )
            .unwrap();
            assert_eq!(again.len(), 1);
            assert_eq!(again[0].geometry, f.geometry);
        }
    }

    #[test]
    fn empty_collection() {
        let doc = br#"{"type":"FeatureCollection","features":[]}"#;
        assert!(parse_pat(doc, &MetadataFilter::All).unwrap().is_empty());
        assert!(parse_fat(doc, &MetadataFilter::All, 3).unwrap().is_empty());
    }

    #[test]
    fn whitespace_tolerated() {
        let doc = br#"{ "type": "FeatureCollection", "features": [
            {"type":"Feature", "geometry": {"type": "Point", "coordinates": [ 1.0 , 2.0 ]}, "id": 7, "properties": {}}
        ] }"#;
        let f = parse_pat(doc, &MetadataFilter::All).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, 7);
        let g = parse_fat(doc, &MetadataFilter::All, 4).unwrap();
        assert_eq!(f, g);
    }
}
