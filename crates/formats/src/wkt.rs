//! Well-known text (WKT) rows — the OSM-W dataset flavour.
//!
//! "RDBMS with spatial extensions usually handle well-known text …
//! geometries contained inside comma or tab separated files. This
//! makes splitting the data a case of searching for newlines" (§2.2).
//! Each row is `id <TAB> WKT <TAB> key=value;key=value…`.
//!
//! A newline pins the row parser's state, so WKT has one execution
//! path: blocks are cut anywhere (the engine cuts them at newlines),
//! and each block parses the rows that start in it ([`parse_rows`]),
//! reading the last one past its end. No fragment has to be merged.

use crate::feature::{MetadataFilter, RawFeature};
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};

/// Parses one `id \t WKT \t tags` row spanning `input[start..end]`
/// (no trailing newline). Returns `None` for empty/filtered rows.
pub fn parse_row(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
) -> Result<Option<RawFeature>, ParseError> {
    let row = &input[start..end];
    if row.iter().all(|b| b.is_ascii_whitespace()) {
        return Ok(None);
    }
    let mut cols = row.split(|&b| b == b'\t');
    let id_col = cols
        .next()
        .ok_or_else(|| ParseError::syntax(start as u64, "missing id column"))?;
    let wkt_col = cols
        .next()
        .ok_or_else(|| ParseError::syntax(start as u64, "missing WKT column"))?;
    let tags_col = cols.next().unwrap_or(b"");

    let id: u64 = std::str::from_utf8(id_col)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| ParseError::syntax(start as u64, "bad id column"))?;
    if !filter.accepts_id(id) {
        return Ok(None);
    }
    if filter.needs_tags() {
        let tags = std::str::from_utf8(tags_col)
            .map_err(|_| ParseError::syntax(start as u64, "non-UTF8 tags"))?;
        let pairs = tags.split(';').filter_map(|kv| kv.split_once('='));
        if !filter.accepts_tags(pairs) {
            return Ok(None);
        }
    }

    let mut cur = WktCursor {
        text: std::str::from_utf8(wkt_col)
            .map_err(|_| ParseError::syntax(start as u64, "non-UTF8 WKT"))?,
        pos: 0,
        base: start + (wkt_col.as_ptr() as usize - row.as_ptr() as usize),
    };
    let geometry = cur.parse_geometry()?;
    Ok(Some(RawFeature {
        id,
        geometry,
        offset: start as u64,
        len: (end - start) as u32,
    }))
}

struct WktCursor<'a> {
    text: &'a str,
    pos: usize,
    base: usize,
}

impl<'a> WktCursor<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::syntax((self.base + self.pos) as u64, msg)
    }

    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn keyword(&mut self) -> &'a str {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let len = atgis_transducer::scan::alpha_span(rest.as_bytes(), 0);
        let kw = &rest[..len];
        self.pos += len;
        kw
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        // Lane-at-a-time number-run scan (digits and `+ - . e E`).
        let len = atgis_transducer::scan::number_span(rest.as_bytes(), 0);
        if len == 0 {
            return Err(self.err("expected a number"));
        }
        let text = &rest[..len];
        let v = match crate::number::decimal(text.as_bytes()) {
            Some(v) => v,
            None => text
                .parse::<f64>()
                .map_err(|e| self.err(format!("bad number: {e}")))?,
        };
        self.pos += len;
        Ok(v)
    }

    /// `x y` pair.
    fn point(&mut self) -> Result<Point, ParseError> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    /// `(x y, x y, …)`
    fn point_list(&mut self) -> Result<Vec<Point>, ParseError> {
        self.expect('(')?;
        let mut pts = vec![self.point()?];
        while self.eat(',') {
            pts.push(self.point()?);
        }
        self.expect(')')?;
        Ok(pts)
    }

    /// `((ring),(ring)…)`
    fn ring_list(&mut self) -> Result<Vec<Vec<Point>>, ParseError> {
        self.expect('(')?;
        let mut rings = vec![self.point_list()?];
        while self.eat(',') {
            rings.push(self.point_list()?);
        }
        self.expect(')')?;
        Ok(rings)
    }

    fn parse_geometry(&mut self) -> Result<Geometry, ParseError> {
        let kw = self.keyword().to_ascii_uppercase();
        match kw.as_str() {
            "POINT" => {
                self.expect('(')?;
                let p = self.point()?;
                self.expect(')')?;
                Ok(Geometry::Point(p))
            }
            "LINESTRING" => Ok(Geometry::LineString(LineString::new(self.point_list()?))),
            "POLYGON" => {
                let rings = self.ring_list()?;
                Ok(Geometry::Polygon(rings_to_polygon(rings)))
            }
            "MULTIPOLYGON" => {
                self.expect('(')?;
                let mut polys = vec![rings_to_polygon(self.ring_list()?)];
                while self.eat(',') {
                    polys.push(rings_to_polygon(self.ring_list()?));
                }
                self.expect(')')?;
                Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)))
            }
            "GEOMETRYCOLLECTION" => {
                self.expect('(')?;
                let mut members = vec![self.parse_geometry()?];
                while self.eat(',') {
                    members.push(self.parse_geometry()?);
                }
                self.expect(')')?;
                Ok(Geometry::Collection(members))
            }
            other => Err(self.err(format!("unknown WKT keyword {other:?}"))),
        }
    }
}

fn rings_to_polygon(mut rings: Vec<Vec<Point>>) -> Polygon {
    let exterior = Ring::new(rings.remove(0));
    let holes = rings.into_iter().map(Ring::new).collect();
    Polygon::new(exterior, holes)
}

/// Parses every row of `input`, in order.
pub fn parse_pat(input: &[u8], filter: &MetadataFilter) -> Result<Vec<RawFeature>, ParseError> {
    let mut out = Vec::new();
    parse_rows(input, 0, input.len(), filter, &mut out)?;
    Ok(out)
}

/// End of the row at or after `from`: its newline, or the end of the
/// input.
pub fn row_end(input: &[u8], from: usize) -> usize {
    crate::split::memchr(b'\n', input, from).unwrap_or(input.len())
}

/// Parses every row that *starts* within `[start, end)` — the rows
/// this block owns — reading the last one past `end` to its newline.
/// `start` may fall anywhere: a block that begins inside a row leaves
/// that row to the block it starts in.
pub fn parse_rows(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
    out: &mut Vec<RawFeature>,
) -> Result<(), ParseError> {
    let mut pos = if start == 0 || input[start - 1] == b'\n' {
        start
    } else {
        row_end(input, start) + 1
    };
    while pos < end {
        if input[pos] == b'\n' {
            pos += 1;
            continue;
        }
        let stop = row_end(input, pos);
        if let Some(f) = parse_row(input, pos, stop, filter)? {
            out.push(f);
        }
        pos = stop + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1\tPOLYGON((0.0 0.0,1.0 0.0,1.0 1.0,0.0 1.0,0.0 0.0))\tname=sq;building=yes
2\tLINESTRING(1.1 0.0,1.2 1.0)\t
3\tPOINT(5.0 6.0)\tname=pt
4\tMULTIPOLYGON(((2.0 2.0,3.0 2.0,3.0 3.0,2.0 2.0)),((4.0 4.0,5.0 4.0,5.0 5.0,4.0 4.0)))\tbuilding=no
5\tGEOMETRYCOLLECTION(POINT(9.0 9.0),LINESTRING(1.1 0.0,1.2 1.0))\tnote=listing
6\tPOLYGON((0.0 0.0,4.0 0.0,4.0 4.0,0.0 4.0),(1.0 1.0,2.0 1.0,2.0 2.0,1.0 2.0))\t
";

    fn check(features: &[RawFeature]) {
        assert_eq!(features.len(), 6);
        assert!(matches!(features[0].geometry, Geometry::Polygon(_)));
        assert!(matches!(features[1].geometry, Geometry::LineString(_)));
        assert_eq!(features[2].geometry, Geometry::Point(Point::new(5.0, 6.0)));
        match &features[3].geometry {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.polygons.len(), 2),
            g => panic!("{g:?}"),
        }
        assert!(matches!(features[4].geometry, Geometry::Collection(_)));
        match &features[5].geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!((p.area() - 15.0).abs() < 1e-12);
            }
            g => panic!("{g:?}"),
        }
    }

    #[test]
    fn pat_parses_sample() {
        let f = parse_pat(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        check(&f);
    }

    /// The rows of `input` parsed block by block over the blocks that
    /// `cuts` delimit.
    fn rows_by_blocks(input: &[u8], cuts: &[usize]) -> Vec<RawFeature> {
        let mut bounds = vec![0];
        bounds.extend_from_slice(cuts);
        bounds.push(input.len());
        let mut out = Vec::new();
        for w in bounds.windows(2) {
            parse_rows(input, w[0], w[1], &MetadataFilter::All, &mut out).unwrap();
        }
        out
    }

    /// The rows of `input` parsed over `blocks` fixed-offset blocks,
    /// cut without regard to newlines.
    fn rows_by_fixed_blocks(input: &[u8], blocks: usize) -> Vec<RawFeature> {
        let cuts: Vec<usize> = crate::split::fixed_blocks(input.len(), blocks)
            .iter()
            .skip(1)
            .map(|b| b.start)
            .collect();
        rows_by_blocks(input, &cuts)
    }

    #[test]
    fn fat_parses_sample_any_block_count() {
        for blocks in 1..32 {
            check(&rows_by_fixed_blocks(SAMPLE.as_bytes(), blocks));
        }
    }

    #[test]
    fn fat_and_pat_agree() {
        let a = parse_pat(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        let b = rows_by_fixed_blocks(SAMPLE.as_bytes(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn rows_are_split_invariant_at_every_cut_and_pair_of_cuts() {
        let input = SAMPLE.as_bytes();
        let whole = parse_pat(input, &MetadataFilter::All).unwrap();
        check(&whole);
        for a in 0..=input.len() {
            assert_eq!(rows_by_blocks(input, &[a]), whole, "cut at {a}");
            for b in a..=input.len() {
                assert_eq!(rows_by_blocks(input, &[a, b]), whole, "cuts at {a}, {b}");
            }
        }
    }

    #[test]
    fn filters_apply() {
        let f = parse_pat(
            SAMPLE.as_bytes(),
            &MetadataFilter::KeyEquals {
                key: "building".into(),
                value: "yes".into(),
            },
        )
        .unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, 1);
        let g = parse_pat(SAMPLE.as_bytes(), &MetadataFilter::IdBelow(3)).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn offsets_allow_reparsing() {
        let input = SAMPLE.as_bytes();
        let features = parse_pat(input, &MetadataFilter::All).unwrap();
        for f in &features {
            let again = parse_row(
                input,
                f.offset as usize,
                f.offset as usize + f.len as usize,
                &MetadataFilter::All,
            )
            .unwrap()
            .unwrap();
            assert_eq!(again.geometry, f.geometry);
            assert_eq!(again.id, f.id);
        }
    }

    #[test]
    fn malformed_row_is_an_error() {
        let bad = b"1\tPOLYGON((0 0,1 0)\t\n";
        assert!(parse_pat(bad, &MetadataFilter::All).is_err());
        let worse = b"notanid\tPOINT(1 1)\t\n";
        assert!(parse_pat(worse, &MetadataFilter::All).is_err());
    }

    #[test]
    fn empty_input() {
        assert!(parse_pat(b"", &MetadataFilter::All).unwrap().is_empty());
        assert!(parse_pat(b"\n\n", &MetadataFilter::All).unwrap().is_empty());
    }

    #[test]
    fn missing_trailing_newline() {
        let doc = "7\tPOINT(1.0 2.0)\t";
        let f = parse_pat(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].id, 7);
    }

    #[test]
    fn scientific_notation_coordinates() {
        let doc = "8\tPOINT(1.5e2 -2.5E-1)\t\n";
        let f = parse_pat(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert_eq!(f[0].geometry, Geometry::Point(Point::new(150.0, -0.25)));
    }
}
