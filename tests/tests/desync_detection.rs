//! Failure injection for the §3.5 hazard: the FAT sync marker
//! (`{"type":"Feature"`) appearing inside free-form metadata. Inside a
//! feature it sits deeper than the feature depth and never counts, so
//! every split parses exactly; outside the features array the contract
//! is *fail loudly or parse correctly* — never silently drop, invent
//! or duplicate features.

use atgis_formats::geojson::{parse_fat, parse_pat};
use atgis_formats::{MetadataFilter, ParseError};

/// A document whose single feature hides the marker pattern inside a
/// nested properties object.
const TRAP: &str = concat!(
    r#"{"type":"FeatureCollection","features":["#,
    r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"#,
    r#""properties":{"trap":{"type":"Feature","x":1},"name":"decoy"}},"#,
    r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[3.0,4.0]},"id":2,"properties":{}}"#,
    r#"]}"#
);

#[test]
fn trap_document_never_silently_misparses() {
    let input = TRAP.as_bytes();
    let reference = parse_fat(input, &MetadataFilter::All, 1).expect("whole-input parse");
    assert_eq!(reference.len(), 2);
    for blocks in 2..60 {
        let got = parse_fat(input, &MetadataFilter::All, blocks)
            .unwrap_or_else(|e| panic!("blocks={blocks}: {e}"));
        assert_eq!(got, reference, "blocks={blocks}");
    }
}

#[test]
fn feature_shaped_preamble_member_is_correct_or_desync() {
    // Foreign members before `features` hold complete Feature objects
    // — as a member value (at the feature depth and above it) and as
    // the elements of another array. The FAT parse may take the first
    // of them for the feature array; the walk must then notice that
    // what follows is not the collection's features.
    let real = concat!(
        r#""features":["#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"properties":{}},"#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[3.0,4.0]},"id":2,"properties":{}}"#,
        r#"]}"#
    );
    let decoy = r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[9.0,9.0]},"id":99,"properties":{}}"#;
    let preambles = [
        format!(r#"{{"type":"FeatureCollection","meta":{decoy},"#),
        format!(r#"{{"type":"FeatureCollection","meta":{{"about":{decoy}}},"#),
        format!(r#"{{"type":"FeatureCollection","meta":{{"about":{decoy},"n":1}},"#),
        format!(r#"{{"type":"FeatureCollection","examples":[{decoy},{decoy}],"#),
    ];
    for preamble in preambles {
        let doc = format!("{preamble}{real}");
        let input = doc.as_bytes();
        for blocks in 1..input.len().min(80) {
            match parse_fat(input, &MetadataFilter::All, blocks) {
                Ok(features) => {
                    let ids: Vec<u64> = features.iter().map(|f| f.id).collect();
                    assert_eq!(ids, [1, 2], "blocks={blocks} in {doc}");
                }
                Err(ParseError::Desync { .. }) => {}
                Err(other) => panic!("blocks={blocks}: not a desync: {other} in {doc}"),
            }
        }
    }
}

#[test]
fn trap_in_string_is_never_a_problem() {
    // Marker inside a *string literal* is invisible to the lexer: all
    // splits must parse correctly.
    let doc = concat!(
        r#"{"type":"FeatureCollection","features":["#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":1,"#,
        r#""properties":{"note":"{\"type\":\"Feature\" inside a string"}},"#,
        r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[3.0,4.0]},"id":2,"properties":{}}"#,
        r#"]}"#
    );
    let input = doc.as_bytes();
    let reference = parse_pat(input, &MetadataFilter::All).unwrap();
    assert_eq!(reference.len(), 2);
    for blocks in 1..60 {
        let got = parse_fat(input, &MetadataFilter::All, blocks)
            .unwrap_or_else(|e| panic!("blocks={blocks}: {e}"));
        assert_eq!(got, reference, "blocks={blocks}");
    }
}

#[test]
fn truncated_document_reports_error() {
    let full = TRAP.as_bytes();
    // Cut the document mid-feature at several points.
    for cut in [full.len() - 3, full.len() / 2, full.len() / 3] {
        let truncated = &full[..cut];
        let r = parse_fat(truncated, &MetadataFilter::All, 4);
        // Either a loud error or a clean prefix of the reference —
        // but never a panic and never invented features.
        if let Ok(features) = r {
            assert!(features.len() <= 2);
        }
    }
}
