//! The tree-building feature parser that the flat-buffer parser
//! replaced, kept as a test oracle: `coordinates` become a
//! [`Coords`] tree that is walked per geometry type, and every number
//! goes through std's parser. It shares only the lexical helpers
//! (strings, skipping, properties) with [`super::Cursor`].

use super::{Cursor, Scratch};
use crate::feature::{MetadataFilter, RawFeature};
use crate::split::find_marker;
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};

use super::super::FEATURE_MARKER;

/// [`super::parse_block`] through the tree parser.
pub(super) fn parse_block(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
    out: &mut Vec<RawFeature>,
) -> Result<(), ParseError> {
    let mut unused = Scratch::default();
    let mut pos = start;
    while let Some(at) = find_marker(input, FEATURE_MARKER, pos) {
        if at >= end {
            break;
        }
        let mut cur = Cursor::new(input, at, &mut unused);
        if let Some(feature) = cur.tree_feature(filter)? {
            out.push(feature);
        }
        pos = cur.pos.max(at + 1);
    }
    Ok(())
}

/// Raw nested-array coordinate value, interpreted per geometry type
/// once the whole `coordinates` member is read.
enum Coords {
    /// A numeric leaf.
    Num(f64),
    /// A nested array.
    List(Vec<Coords>),
}

impl Cursor<'_, '_> {
    fn std_number(&mut self) -> Result<f64, ParseError> {
        let at = self.pos;
        let span = self.scalar_span()?;
        let text = std::str::from_utf8(span).map_err(|_| self.err("non-UTF8 scalar"))?;
        text.parse::<f64>()
            .map_err(|e| ParseError::syntax(at as u64, format!("bad number {text:?}: {e}")))
    }

    fn tree_feature(&mut self, filter: &MetadataFilter) -> Result<Option<RawFeature>, ParseError> {
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
                "geometry" => geometry = Some(self.tree_geometry()?),
                "id" => {
                    id = self.std_number()? as u64;
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

    fn tree_geometry(&mut self) -> Result<Geometry, ParseError> {
        self.expect(b'{')?;
        let mut kind: Option<&str> = None;
        let mut coords: Option<Coords> = None;
        let mut members: Option<Vec<Geometry>> = None;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => kind = Some(self.parse_string()?),
                "coordinates" => coords = Some(self.tree_coords()?),
                "geometries" => {
                    let mut gs = Vec::new();
                    self.expect(b'[')?;
                    if !self.eat(b']') {
                        loop {
                            gs.push(self.tree_geometry()?);
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

    fn tree_coords(&mut self) -> Result<Coords, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'[') {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if !self.eat(b']') {
                loop {
                    items.push(self.tree_coords()?);
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')?;
            }
            Ok(Coords::List(items))
        } else {
            Ok(Coords::Num(self.std_number()?))
        }
    }
}

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
