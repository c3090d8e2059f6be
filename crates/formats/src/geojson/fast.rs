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
//! walks from feature to feature with `parse_feature_at`. A join
//! re-parses one recorded feature with [`parse_geometry_at`].
//!
//! A `coordinates` member is read before the geometry's `type` may be
//! known, so it is first parsed into a flat pre-order token buffer
//! (`Tok`: an array header with its length and subtree end, or a
//! number) and interpreted once the geometry object closes, which
//! keeps the parser independent of member order. The buffer is owned
//! by the caller and reused for every feature of a PAT block or a FAT
//! walk, so a feature costs one allocation per point list rather than
//! one per position. Numbers go through [`crate::number::decimal`]
//! straight from the scanned span, with std's parser as the fallback
//! for anything it declines, so every value is bit-identical to std's.

use crate::feature::{MetadataFilter, RawFeature};
use crate::number;
use crate::split::find_marker;
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};

use super::FEATURE_MARKER;

#[cfg(test)]
mod oracle;

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
    let mut scratch = Scratch::default();
    let mut pos = start;
    while let Some(at) = find_marker(input, FEATURE_MARKER, pos) {
        if at >= end {
            break;
        }
        let mut cur = Cursor::new(input, at, &mut scratch);
        if let Some(feature) = cur.parse_feature(filter)? {
            out.push(feature);
        }
        pos = cur.pos.max(at + 1);
    }
    Ok(())
}

/// The coordinate buffer one caller reuses for every feature it
/// parses: a PAT block, a FAT walk, or a join task re-parsing its
/// candidates with [`parse_geometry_at`].
#[derive(Default)]
pub struct Scratch(Vec<Tok>);

/// Parses the feature object that starts exactly at `at` and returns
/// its geometry, with `scratch` as the coordinate buffer. This is the
/// join's re-parse: `at` is an offset the scan recorded.
pub fn parse_geometry_at(
    input: &[u8],
    at: usize,
    scratch: &mut Scratch,
) -> Result<Geometry, ParseError> {
    scratch.0.clear();
    match parse_feature_at(input, at, &MetadataFilter::All, scratch).0? {
        Some(feature) => Ok(feature.geometry),
        None => Err(ParseError::syntax(at as u64, "no feature at offset")),
    }
}

/// Parses the feature object starting at `at`. Returns the feature
/// (`None` when `filter` rejects it) and where the cursor stopped: the
/// byte after the object on success, the point of failure otherwise —
/// `input.len()` when the object runs past the end of `input`.
pub(super) fn parse_feature_at(
    input: &[u8],
    at: usize,
    filter: &MetadataFilter,
    scratch: &mut Scratch,
) -> (Result<Option<RawFeature>, ParseError>, usize) {
    let mut cur = Cursor::new(input, at, scratch);
    let parsed = cur.parse_feature(filter);
    (parsed, cur.pos)
}

/// Byte-level cursor with the usual recursive-descent helpers.
struct Cursor<'a, 's> {
    input: &'a [u8],
    pos: usize,
    /// The flat coordinate buffer; each geometry truncates it back to
    /// where it found it once interpreted.
    toks: &'s mut Vec<Tok>,
}

/// One token of a `coordinates` value, flattened in pre-order.
#[derive(Clone, Copy)]
enum Tok {
    /// An array with `len` elements, whose subtree ends just before
    /// buffer index `end`. (`u32` keeps a token at 16 bytes; a buffer
    /// of 2³² tokens would itself need 64 GiB.)
    List { len: u32, end: u32 },
    /// A numeric leaf.
    Num(f64),
}

impl<'a, 's> Cursor<'a, 's> {
    fn new(input: &'a [u8], pos: usize, scratch: &'s mut Scratch) -> Self {
        Cursor {
            input,
            pos,
            toks: &mut scratch.0,
        }
    }

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

    /// Scans a JSON number (or bare literal like `true`/`null`) and
    /// returns its bytes.
    fn scalar_span(&mut self) -> Result<&'a [u8], ParseError> {
        self.skip_ws();
        let start = self.pos;
        // Lane-at-a-time scalar-run scan: number bytes plus lowercase
        // letters (`true` / `false` / `null`).
        self.pos += atgis_transducer::scan::json_scalar_span(self.input, self.pos);
        if start == self.pos {
            return Err(self.err("expected a scalar value"));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parses a JSON number: the exact decimal path first, std's
    /// parser for whatever it declines.
    fn parse_number(&mut self) -> Result<f64, ParseError> {
        let at = self.pos;
        let span = self.scalar_span()?;
        if let Some(v) = number::decimal(span) {
            return Ok(v);
        }
        let text = std::str::from_utf8(span).map_err(|_| self.err("non-UTF8 scalar"))?;
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
                self.scalar_span()?;
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
        let base = self.toks.len();
        let mut kind: Option<&str> = None;
        let mut coords: Option<usize> = None;
        let mut members: Option<Vec<Geometry>> = None;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => kind = Some(self.parse_string()?),
                "coordinates" => {
                    coords = Some(self.toks.len());
                    self.parse_coords()?;
                }
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
        let geometry = interpret_geometry(kind, self.toks, coords, members);
        self.toks.truncate(base);
        geometry.map_err(|m| self.err(m))
    }

    /// Appends one coordinates value to the token buffer in pre-order.
    fn parse_coords(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            let v = self.parse_number()?;
            self.toks.push(Tok::Num(v));
            return Ok(());
        }
        self.pos += 1;
        let at = self.toks.len();
        self.toks.push(Tok::List { len: 0, end: 0 });
        let mut len = 0;
        if !self.eat(b']') {
            loop {
                self.parse_coords()?;
                len += 1;
                if !self.eat(b',') {
                    break;
                }
            }
            self.expect(b']')?;
        }
        let end = self.toks.len() as u32;
        self.toks[at] = Tok::List { len, end };
        Ok(())
    }
}

/// Interprets the flat coordinates value at `toks[coords]` according
/// to the geometry type. Each point list is allocated once, at its
/// exact length.
fn interpret_geometry(
    kind: &str,
    toks: &[Tok],
    coords: Option<usize>,
    members: Option<Vec<Geometry>>,
) -> Result<Geometry, String> {
    match kind {
        "GeometryCollection" => Ok(Geometry::Collection(
            members.ok_or("GeometryCollection without geometries")?,
        )),
        _ => {
            let at = coords.ok_or("geometry without coordinates")?;
            match kind {
                "Point" => Ok(Geometry::Point(as_point(toks, at)?)),
                "LineString" => Ok(Geometry::LineString(LineString::new(as_points(toks, at)?))),
                "Polygon" => Ok(Geometry::Polygon(as_polygon(toks, at)?)),
                "MultiPolygon" => {
                    let list = as_list(toks, at)?;
                    let mut polys = Vec::with_capacity(list.len());
                    for p in list {
                        polys.push(as_polygon(toks, p)?);
                    }
                    Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)))
                }
                other => Err(format!("unsupported geometry type {other:?}")),
            }
        }
    }
}

/// The elements of the array at `toks[at]`, as indices into `toks`.
fn as_list(toks: &[Tok], at: usize) -> Result<Elements<'_>, String> {
    match toks[at] {
        Tok::List { len, .. } => Ok(Elements {
            toks,
            next: at + 1,
            left: len as usize,
        }),
        Tok::Num(_) => Err("expected an array".into()),
    }
}

/// Iterator over the elements of one array in the flat buffer: each
/// step jumps over the previous element's subtree.
struct Elements<'t> {
    toks: &'t [Tok],
    next: usize,
    left: usize,
}

impl Iterator for Elements<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        let at = self.next;
        self.next = match self.toks[at] {
            Tok::List { end, .. } => end as usize,
            Tok::Num(_) => at + 1,
        };
        self.left -= 1;
        Some(at)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_> {}

fn as_point(toks: &[Tok], at: usize) -> Result<Point, String> {
    if as_list(toks, at)?.len() < 2 {
        return Err("point needs two coordinates".into());
    }
    // Only the first two elements matter. When the first is a number
    // the second is the next token; when it is not, the point fails
    // either way.
    match toks[at + 1..] {
        [Tok::Num(x), Tok::Num(y), ..] => Ok(Point::new(x, y)),
        _ => Err("point coordinates must be numbers".into()),
    }
}

fn as_points(toks: &[Tok], at: usize) -> Result<Vec<Point>, String> {
    let list = as_list(toks, at)?;
    let mut points = Vec::with_capacity(list.len());
    for p in list {
        points.push(as_point(toks, p)?);
    }
    Ok(points)
}

fn as_polygon(toks: &[Tok], at: usize) -> Result<Polygon, String> {
    let mut rings = as_list(toks, at)?;
    let exterior = rings
        .next()
        .ok_or_else(|| "polygon needs at least one ring".to_string())?;
    let exterior = Ring::new(as_points(toks, exterior)?);
    let mut holes = Vec::with_capacity(rings.len());
    for r in rings {
        holes.push(Ring::new(as_points(toks, r)?));
    }
    Ok(Polygon::new(exterior, holes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// `parse_block` and the tree oracle over the whole of `doc`:
    /// `{:?}`-equal features, or the same error offset and message.
    fn agrees_with_oracle(doc: &[u8], filter: &MetadataFilter) {
        let (mut flat, mut tree) = (Vec::new(), Vec::new());
        let got = parse_block(doc, 0, doc.len(), filter, &mut flat).map(|()| flat);
        let want = oracle::parse_block(doc, 0, doc.len(), filter, &mut tree).map(|()| tree);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{}",
            String::from_utf8_lossy(doc)
        );
    }

    #[test]
    fn wrong_shapes_fail_like_the_oracle() {
        for (kind, coords) in [
            ("Point", "[[1,2]]"),
            ("Point", "[1]"),
            ("Point", "[1,[2]]"),
            ("Point", "3"),
            ("Point", "[1,2,[3]]"),
            ("Polygon", "[]"),
            ("Polygon", "[[1,2]]"),
            ("Polygon", "[[[0,0],[1,0],[0,0]],[]]"),
            ("LineString", "[1,2,3]"),
            ("LineString", "[]"),
            ("MultiPolygon", "[[]]"),
            ("MultiPolygon", "[[[[0,0],[1,1]]],[[[2,2],[0,0]]]]"),
            ("Circle", "[0,0]"),
            ("Point", "[1.5e400,-0]"),
            ("Point", "[1,2"),
            ("Point", "[1,,2]"),
            ("Point", "[1.2.3,4]"),
        ] {
            let doc = format!(
                r#"{{"type":"Feature","geometry":{{"coordinates":{coords},"type":"{kind}"}},"id":1,"properties":{{}}}}"#
            );
            agrees_with_oracle(doc.as_bytes(), &MetadataFilter::All);
        }
    }

    /// Seeded generator of feature documents: shuffled members, nested
    /// collections, odd positions, numbers std alone accepts, wrong
    /// shapes and missing members. Each odd choice is made with
    /// probability `1 / noise`, so some documents are clean and others
    /// fail early.
    struct Gen {
        state: u64,
        noise: u64,
    }

    impl Gen {
        fn new(seed: u64) -> Gen {
            let mut g = Gen {
                state: seed.max(1),
                noise: 1,
            };
            g.noise = [6, 40, 400][g.below(3) as usize];
            g
        }

        fn below(&mut self, n: u64) -> u64 {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            self.state % n
        }

        fn odd(&mut self) -> bool {
            self.below(self.noise) == 0
        }

        fn ws(&mut self) -> &'static str {
            ["", "", "", " ", "\n  ", "\t"][self.below(6) as usize]
        }

        fn number(&mut self) -> String {
            let sign = if self.below(3) == 0 { "-" } else { "" };
            if self.odd() {
                return [
                    "+1", "1.", ".5", "nan", "-0", "1e", "007", "1.2.3", "true", "-",
                ][self.below(10) as usize]
                    .to_owned();
            }
            match self.below(12) {
                0..=7 => format!("{sign}{}.{}", self.below(181), self.below(10_000_000)),
                8 => format!("{sign}{}", self.below(1000)),
                9 => format!("{sign}{}e{}", self.below(100), self.below(40) as i64 - 20),
                10 => format!("{sign}9007199254740{}.5", 990 + self.below(10)),
                _ => format!("{sign}0.{}1", "0".repeat(self.below(30) as usize)),
            }
        }

        fn list(
            &mut self,
            min: u64,
            max: u64,
            mut item: impl FnMut(&mut Self) -> String,
        ) -> String {
            let n = min + self.below(max - min + 1);
            let items: Vec<String> = (0..n)
                .map(|_| {
                    let (a, v, b) = (self.ws(), item(self), self.ws());
                    format!("{a}{v}{b}")
                })
                .collect();
            format!("[{}]", items.join(","))
        }

        fn position(&mut self) -> String {
            let (x, y) = (self.number(), self.number());
            match self.below(8) {
                0 => format!("[{x},{y},{}]", self.number()),
                1 => format!("[{x},{y},[{}]]", self.number()),
                _ if !self.odd() => format!("[{x},{y}]"),
                2 => "[]".into(),
                3 => format!("[{x}]"),
                4 => format!("[[{x},{y}]]"),
                _ => x,
            }
        }

        /// A coordinates value nested `depth` arrays deep (1: one
        /// position).
        fn nested(&mut self, depth: u64) -> String {
            if depth <= 1 {
                self.position()
            } else {
                let min = u64::from(!self.odd());
                self.list(min, 5, |g| g.nested(depth - 1))
            }
        }

        fn geometry(&mut self, depth: u32) -> String {
            const KINDS: [(&str, u64); 6] = [
                ("Point", 1),
                ("LineString", 2),
                ("Polygon", 3),
                ("MultiPolygon", 4),
                ("GeometryCollection", 0),
                ("Circle", 1),
            ];
            let kinds = if depth == 3 {
                4
            } else if self.odd() {
                6
            } else {
                5
            };
            let (kind, natural) = KINDS[self.below(kinds) as usize];
            let mut members = Vec::new();
            if !self.odd() {
                members.push(format!(r#""type":"{kind}""#));
            }
            if kind == "GeometryCollection" {
                if !self.odd() {
                    let gs = self.list(0, 3, |g| g.geometry(depth + 1));
                    members.push(format!(r#""geometries":{gs}"#));
                }
            } else if !self.odd() {
                let depth = match self.below(2) {
                    _ if !self.odd() => natural,
                    0 => natural.saturating_sub(1),
                    _ => natural + 1,
                };
                let coords = self.nested(depth);
                members.push(format!(r#""coordinates":{coords}"#));
            }
            if self.below(6) == 0 {
                members.push(format!(r#""bbox":{}"#, self.nested(2)));
            }
            self.object(members)
        }

        fn object(&mut self, mut members: Vec<String>) -> String {
            for i in (1..members.len()).rev() {
                members.swap(i, self.below(i as u64 + 1) as usize);
            }
            let sep = format!("{},{}", self.ws(), self.ws());
            format!("{{{}}}", members.join(&sep))
        }

        fn feature(&mut self) -> String {
            let mut members = Vec::new();
            if !self.odd() {
                members.push(format!(r#""geometry":{}"#, self.geometry(0)));
            }
            members.push(format!(r#""id":{}"#, self.below(50)));
            members.push(r#""properties":{"a":"b","n":[1,{"c":null}]}"#.to_owned());
            let rest = self.object(members);
            format!(r#"{{"type":"Feature",{}"#, &rest[1..])
        }

        fn document(&mut self) -> String {
            let features = self.list(0, 6, Gen::feature);
            format!(r#"{{"type":"FeatureCollection","features":{features}}}"#)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flat_parser_matches_the_tree_oracle(seed in 1u64..u64::MAX, cut in 0u64..8, id_below in 0u64..60) {
            let doc = Gen::new(seed).document();
            // Some documents are cut short, to compare end-of-input errors.
            let len = if cut == 0 { seed as usize % (doc.len() + 1) } else { doc.len() };
            agrees_with_oracle(&doc.as_bytes()[..len], &MetadataFilter::All);
            agrees_with_oracle(doc.as_bytes(), &MetadataFilter::IdBelow(id_below));
        }
    }

    #[test]
    fn generated_documents_mostly_parse() {
        let (mut docs, mut features) = (0, 0);
        for seed in 1..=200u64 {
            let doc = Gen::new(seed * 0x9E37_79B9).document();
            let mut out = Vec::new();
            if parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out).is_ok() {
                docs += 1;
                features += out.len();
            }
        }
        assert!(
            docs >= 60 && features >= 150,
            "{docs} of 200 generated documents parse, with {features} features"
        );
    }
}
