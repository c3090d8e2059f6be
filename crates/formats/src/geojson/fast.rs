//! The optimised GeoJSON feature parser shared by both execution
//! modes.
//!
//! This plays the role RapidJSON plays in the paper's prototype
//! (§4.4: "the parsing stage consists of a wrapper around an
//! off-the-shelf parser, which inputs well-formed data blocks"): a
//! non-speculative recursive-descent parser that starts at a feature
//! object, i.e. in a known parser state (§3.5). PAT finds those
//! starts with the `{"type":"Feature"` marker ([`parse_block`]); FAT
//! finds them from the resolved lexer state ([`super::fat`]) and
//! walks from feature to feature with `parse_feature_at`.

use crate::feature::{MetadataFilter, RawFeature};
use crate::split::find_marker;
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};

use super::FEATURE_MARKER;

/// Parses every feature whose object starts in `[start, end)` of
/// `input`, appending accepted features to `out`. Objects may extend
/// past `end` (they never do when blocks are marker-aligned, except
/// for the final block's closing `]}`).
pub fn parse_block(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
    out: &mut Vec<RawFeature>,
) -> Result<(), ParseError> {
    let mut pos = start;
    while let Some(at) = find_marker(input, FEATURE_MARKER, pos) {
        if at >= end {
            break;
        }
        let mut cur = Cursor { input, pos: at };
        if let Some(feature) = cur.parse_feature(filter)? {
            out.push(feature);
        }
        pos = cur.pos.max(at + 1);
    }
    Ok(())
}

/// Parses the feature object starting at `at`. Returns the feature
/// (`None` when `filter` rejects it) and where the cursor stopped: the
/// byte after the object on success, the point of failure otherwise —
/// `input.len()` when the object runs past the end of `input`.
pub(super) fn parse_feature_at(
    input: &[u8],
    at: usize,
    filter: &MetadataFilter,
) -> (Result<Option<RawFeature>, ParseError>, usize) {
    let mut cur = Cursor { input, pos: at };
    let parsed = cur.parse_feature(filter);
    (parsed, cur.pos)
}

/// Byte-level cursor with the usual recursive-descent helpers.
struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
}

/// Raw nested-array coordinate value, interpreted per geometry type
/// once the whole `coordinates` member is read (this makes the parser
/// independent of member order).
enum Coords {
    /// A numeric leaf.
    Num(f64),
    /// A nested array.
    List(Vec<Coords>),
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::syntax(self.pos as u64, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses a string literal, returning its raw (un-unescaped)
    /// contents. The scan jumps straight to the next quote or escape
    /// via the SWAR [`crate::split::memchr2`], so plain string bytes
    /// cost 1/8th of a comparison each.
    fn parse_string(&mut self) -> Result<&'a str, ParseError> {
        self.expect(b'"')?;
        let content_start = self.pos;
        loop {
            match crate::split::memchr2(b'"', b'\\', self.input, self.pos) {
                Some(at) if self.input[at] == b'"' => {
                    let s = &self.input[content_start..at];
                    self.pos = at + 1;
                    return std::str::from_utf8(s).map_err(|_| self.err("non-UTF8 string"));
                }
                Some(at) => self.pos = at + 2, // Escape: skip the pair.
                None => {
                    self.pos = self.input.len();
                    return Err(self.err("unterminated string"));
                }
            }
        }
    }

    /// Parses a JSON number (or bare literal like `true`/`null`) and
    /// returns its text.
    fn parse_scalar_text(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        // Lane-at-a-time scalar-run scan: number bytes plus lowercase
        // letters (`true` / `false` / `null`).
        self.pos += atgis_transducer::scan::json_scalar_span(self.input, self.pos);
        if start == self.pos {
            return Err(self.err("expected a scalar value"));
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| self.err("non-UTF8 scalar"))
    }

    fn parse_number(&mut self) -> Result<f64, ParseError> {
        let at = self.pos;
        let text = self.parse_scalar_text()?;
        text.parse::<f64>()
            .map_err(|e| ParseError::syntax(at as u64, format!("bad number {text:?}: {e}")))
    }

    /// Skips one arbitrary JSON value.
    fn skip_value(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.parse_string()?;
                Ok(())
            }
            Some(b'{') => {
                self.expect(b'{')?;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.parse_string()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')
            }
            Some(_) => {
                self.parse_scalar_text()?;
                Ok(())
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one feature object starting at the cursor. Returns
    /// `None` when the metadata filter rejects it.
    fn parse_feature(&mut self, filter: &MetadataFilter) -> Result<Option<RawFeature>, ParseError> {
        let offset = self.pos;
        self.expect(b'{')?;
        let mut geometry = None;
        let mut id = 0u64;
        let mut tags_ok = !filter.needs_tags();
        if self.eat(b'}') {
            return Err(self.err("empty feature object"));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => {
                    let t = self.parse_string()?;
                    if t != "Feature" {
                        return Err(self.err(format!("expected Feature, got {t:?}")));
                    }
                }
                "geometry" => geometry = Some(self.parse_geometry()?),
                "id" => {
                    id = self.parse_number()? as u64;
                }
                "properties" => {
                    self.skip_ws();
                    let span_start = self.pos;
                    let pair_match = self.parse_properties(filter)?;
                    tags_ok = if filter.needs_raw_properties() {
                        filter.accepts_properties_json(&self.input[span_start..self.pos])
                    } else {
                        pair_match || tags_ok
                    };
                }
                _ => self.skip_value()?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        let geometry = geometry.ok_or_else(|| self.err("feature without geometry"))?;
        let len = (self.pos - offset) as u32;
        if !filter.accepts_id(id) || !tags_ok {
            return Ok(None);
        }
        Ok(Some(RawFeature {
            id,
            geometry,
            offset: offset as u64,
            len,
        }))
    }

    /// Parses the properties object, returning whether the filter's
    /// key/value predicate matched (always true for filters that do
    /// not inspect tags).
    fn parse_properties(&mut self, filter: &MetadataFilter) -> Result<bool, ParseError> {
        self.expect(b'{')?;
        let mut matched = !filter.needs_tags();
        if self.eat(b'}') {
            return Ok(matched);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    let value = self.parse_string()?;
                    if filter.accepts_tags(std::iter::once((key, value))) && filter.needs_tags() {
                        matched = true;
                    }
                }
                _ => self.skip_value()?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        Ok(matched)
    }

    fn parse_geometry(&mut self) -> Result<Geometry, ParseError> {
        self.expect(b'{')?;
        let mut kind: Option<&str> = None;
        let mut coords: Option<Coords> = None;
        let mut members: Option<Vec<Geometry>> = None;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => kind = Some(self.parse_string()?),
                "coordinates" => coords = Some(self.parse_coords()?),
                "geometries" => {
                    let mut gs = Vec::new();
                    self.expect(b'[')?;
                    if !self.eat(b']') {
                        loop {
                            gs.push(self.parse_geometry()?);
                            if !self.eat(b',') {
                                break;
                            }
                        }
                        self.expect(b']')?;
                    }
                    members = Some(gs);
                }
                _ => self.skip_value()?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        let kind = kind.ok_or_else(|| self.err("geometry without type"))?;
        interpret_geometry(kind, coords, members).map_err(|m| self.err(m))
    }

    fn parse_coords(&mut self) -> Result<Coords, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'[') {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if !self.eat(b']') {
                loop {
                    items.push(self.parse_coords()?);
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')?;
            }
            Ok(Coords::List(items))
        } else {
            Ok(Coords::Num(self.parse_number()?))
        }
    }
}

/// Interprets a raw coordinates tree according to the geometry type.
fn interpret_geometry(
    kind: &str,
    coords: Option<Coords>,
    members: Option<Vec<Geometry>>,
) -> Result<Geometry, String> {
    match kind {
        "GeometryCollection" => Ok(Geometry::Collection(
            members.ok_or("GeometryCollection without geometries")?,
        )),
        _ => {
            let coords = coords.ok_or("geometry without coordinates")?;
            match kind {
                "Point" => Ok(Geometry::Point(as_point(&coords)?)),
                "LineString" => Ok(Geometry::LineString(LineString::new(as_points(&coords)?))),
                "Polygon" => Ok(Geometry::Polygon(as_polygon(&coords)?)),
                "MultiPolygon" => {
                    let list = as_list(&coords)?;
                    let polys = list.iter().map(as_polygon).collect::<Result<Vec<_>, _>>()?;
                    Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)))
                }
                other => Err(format!("unsupported geometry type {other:?}")),
            }
        }
    }
}

fn as_list(c: &Coords) -> Result<&[Coords], String> {
    match c {
        Coords::List(l) => Ok(l),
        Coords::Num(_) => Err("expected an array".into()),
    }
}

fn as_point(c: &Coords) -> Result<Point, String> {
    let l = as_list(c)?;
    if l.len() < 2 {
        return Err("point needs two coordinates".into());
    }
    match (&l[0], &l[1]) {
        (Coords::Num(x), Coords::Num(y)) => Ok(Point::new(*x, *y)),
        _ => Err("point coordinates must be numbers".into()),
    }
}

fn as_points(c: &Coords) -> Result<Vec<Point>, String> {
    as_list(c)?.iter().map(as_point).collect()
}

fn as_polygon(c: &Coords) -> Result<Polygon, String> {
    let rings = as_list(c)?;
    if rings.is_empty() {
        return Err("polygon needs at least one ring".into());
    }
    let exterior = Ring::new(as_points(&rings[0])?);
    let holes = rings[1..]
        .iter()
        .map(|r| Ok(Ring::new(as_points(r)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Polygon::new(exterior, holes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(doc: &str) -> RawFeature {
        let mut out = Vec::new();
        parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out).unwrap();
        assert_eq!(out.len(), 1, "expected one feature in {doc}");
        out.into_iter().next().unwrap()
    }

    #[test]
    fn parses_polygon_with_hole() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0.0,0.0],[4.0,0.0],[4.0,4.0],[0.0,4.0]],[[1.0,1.0],[2.0,1.0],[2.0,2.0],[1.0,2.0]]]},"id":9,"properties":{}}"#,
        );
        match f.geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!((p.area() - 15.0).abs() < 1e-12);
            }
            g => panic!("got {g:?}"),
        }
    }

    #[test]
    fn member_order_is_irrelevant() {
        let f = one(
            r#"{"type":"Feature","id":3,"geometry":{"coordinates":[1.5,2.5],"type":"Point"},"properties":{"a":1}}"#,
        );
        assert_eq!(f.id, 3);
        assert_eq!(f.geometry, Geometry::Point(Point::new(1.5, 2.5)));
    }

    #[test]
    fn skips_unknown_members_and_nested_metadata() {
        let f = one(
            r#"{"type":"Feature","bbox":[0,0,1,1],"geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":5,"properties":{"nested":{"deep":[1,{"x":"y"}]},"flag":true}}"#,
        );
        assert_eq!(f.id, 5);
    }

    #[test]
    fn marker_inside_string_is_not_a_feature() {
        // The marker bytes appear inside a properties string; the naive
        // scan finds them but the parse fails mid-string... it must not
        // *miscount*. We place the tricky feature alone so the scan
        // directly shows the behaviour.
        let doc = r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,0.0]},"id":1,"properties":{"note":"x"}}"#;
        let f = one(doc);
        assert_eq!(f.len as usize, doc.len());
    }

    #[test]
    fn escaped_quotes_in_properties() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,1.0]},"id":2,"properties":{"name":"say \"hi\" {[,:]}"}}"#,
        );
        assert_eq!(f.id, 2);
    }

    #[test]
    fn rejects_malformed_feature() {
        let doc = r#"{"type":"Feature","geometry":{"type":"Point","coordinates":}}"#;
        let mut out = Vec::new();
        let err = parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_feature_without_geometry() {
        let doc = r#"{"type":"Feature","id":1,"properties":{}}"#;
        let mut out = Vec::new();
        assert!(parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out).is_err());
    }

    #[test]
    fn negative_and_exponent_coordinates() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[-1.5e2,2.5E-1]},"id":1,"properties":{}}"#,
        );
        assert_eq!(f.geometry, Geometry::Point(Point::new(-150.0, 0.25)));
    }
}
