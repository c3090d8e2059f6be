//! The three-pass, `String`-owning OSM-XML parser this crate shipped
//! before the fused collector, kept verbatim as a test-only oracle:
//! `atgis_baselines::sequential` parses XML through the production
//! [`super::parse`], so without an independent implementation every
//! differential suite would follow a parser bug silently. It keeps
//! its known defects (a `<!DOCTYPE>` ends the scan, an unterminated
//! attribute value runs to end of input) — the property tests only
//! feed it documents those do not touch.

use crate::feature::{MetadataFilter, RawFeature};
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};
use std::collections::HashMap;

/// The temporary node table: OSM node id → coordinate.
pub type NodeTable = HashMap<u64, Point>;

/// Pass 1: scans a byte range for `<node …/>` elements, adding them to
/// a node table. Tables built for disjoint blocks merge by union.
pub fn collect_nodes(input: &[u8], start: usize, end: usize) -> Result<NodeTable, ParseError> {
    let mut table = NodeTable::new();
    let mut scanner = Scanner { input, pos: start };
    while let Some(elem) = scanner.next_element(end)? {
        if elem.name == "node" {
            let id = elem
                .attr_u64("id")
                .ok_or_else(|| ParseError::syntax(elem.offset as u64, "node without id"))?;
            let lat = elem.attr_f64("lat");
            let lon = elem.attr_f64("lon");
            if let (Some(lat), Some(lon)) = (lat, lon) {
                table.insert(id, Point::new(lon, lat));
            }
        }
        // Other elements (the <osm> container, ways, relations, tags)
        // are scanned *through*, not skipped over: nodes may appear
        // anywhere below them.
    }
    Ok(table)
}

/// A parsed way: id, node refs and tags — kept in the temporary table
/// so relations can assemble multipolygons from member ways.
#[derive(Debug, Clone)]
pub struct WaySpec {
    /// OSM way id.
    pub id: u64,
    /// Ordered node references.
    pub refs: Vec<u64>,
    /// `k=v` tags.
    pub tags: Vec<(String, String)>,
    /// Byte offset of the `<way` element.
    pub offset: u64,
    /// Byte length of the element.
    pub len: u32,
}

/// A parsed relation: id plus way members with roles.
#[derive(Debug, Clone)]
pub struct RelationSpec {
    /// OSM relation id.
    pub id: u64,
    /// `(way_id, role)` members.
    pub members: Vec<(u64, String)>,
    /// Byte offset of the `<relation` element.
    pub offset: u64,
    /// Byte length of the element.
    pub len: u32,
}

/// Pass 2a: scans a byte range for `<way>` elements. Block-parallel;
/// way lists from disjoint blocks merge by concatenation.
pub fn collect_ways(input: &[u8], start: usize, end: usize) -> Result<Vec<WaySpec>, ParseError> {
    let mut ways = Vec::new();
    let mut scanner = Scanner { input, pos: start };
    while let Some(elem) = scanner.next_element(end)? {
        if elem.name == "way" {
            let id = elem
                .attr_u64("id")
                .ok_or_else(|| ParseError::syntax(elem.offset as u64, "way without id"))?;
            let (refs, tags, end_pos) = scanner.way_children(&elem)?;
            ways.push(WaySpec {
                id,
                refs,
                tags,
                offset: elem.offset as u64,
                len: (end_pos - elem.offset) as u32,
            });
        }
    }
    Ok(ways)
}

/// Pass 2b: scans a byte range for `<relation>` elements.
pub fn collect_relations(
    input: &[u8],
    start: usize,
    end: usize,
) -> Result<Vec<RelationSpec>, ParseError> {
    let mut relations = Vec::new();
    let mut scanner = Scanner { input, pos: start };
    while let Some(elem) = scanner.next_element(end)? {
        match elem.name.as_str() {
            "relation" => {
                let id = elem
                    .attr_u64("id")
                    .ok_or_else(|| ParseError::syntax(elem.offset as u64, "relation without id"))?;
                let (members, end_pos) = scanner.relation_children(&elem)?;
                relations.push(RelationSpec {
                    id,
                    members,
                    offset: elem.offset as u64,
                    len: (end_pos - elem.offset) as u32,
                });
            }
            // Ways must be stepped over (their children contain no
            // relations, and scanning into them is harmless but slow).
            "way" => {
                let _ = scanner.way_children(&elem)?;
            }
            _ => {}
        }
    }
    Ok(relations)
}

/// Final assembly: resolves way refs against the node table, attaches
/// relation members and emits features. Runs once after the parallel
/// collection passes (its cost is proportional to the *object* count,
/// not the byte count, so it does not bound scalability).
pub fn assemble(
    ways: &[WaySpec],
    relations: &[RelationSpec],
    nodes: &NodeTable,
    filter: &MetadataFilter,
) -> Vec<RawFeature> {
    let way_index: HashMap<u64, usize> = ways.iter().enumerate().map(|(i, w)| (w.id, i)).collect();
    let mut in_relation: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = Vec::new();

    for rel in relations {
        let mut outers = Vec::new();
        let mut inners = Vec::new();
        for (way_id, role) in &rel.members {
            in_relation.insert(*way_id);
            if let Some(&wi) = way_index.get(way_id) {
                if let Some(ring) = way_ring(&ways[wi], nodes) {
                    if role == "inner" {
                        inners.push(ring);
                    } else {
                        outers.push(ring);
                    }
                }
            }
        }
        if outers.is_empty() {
            continue;
        }
        let polygons: Vec<Polygon> = outers
            .into_iter()
            .map(|ext| {
                // Attach inners contained by this outer's bbox.
                let holes = inners
                    .iter()
                    .filter(|h| ext.mbr().contains(&h.mbr()))
                    .cloned()
                    .collect();
                Polygon::new(ext, holes)
            })
            .collect();
        let geometry = if polygons.len() == 1 {
            Geometry::Polygon(polygons.into_iter().next().expect("one"))
        } else {
            Geometry::MultiPolygon(MultiPolygon::new(polygons))
        };
        if filter.accepts_id(rel.id) {
            out.push(RawFeature {
                id: rel.id,
                geometry,
                offset: rel.offset,
                len: rel.len,
            });
        }
    }

    for w in ways {
        if in_relation.contains(&w.id) {
            continue; // Geometry already emitted through its relation.
        }
        if !filter.accepts_id(w.id) {
            continue;
        }
        if filter.needs_tags()
            && !filter.accepts_tags(w.tags.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        {
            continue;
        }
        let pts: Vec<Point> = w
            .refs
            .iter()
            .filter_map(|r| nodes.get(r).copied())
            .collect();
        if pts.len() < 2 {
            continue;
        }
        let closed = w.refs.len() >= 4 && w.refs.first() == w.refs.last();
        let geometry = if closed {
            Geometry::Polygon(Polygon::new(Ring::new(pts), Vec::new()))
        } else {
            Geometry::LineString(LineString::new(pts))
        };
        out.push(RawFeature {
            id: w.id,
            geometry,
            offset: w.offset,
            len: w.len,
        });
    }
    // Deterministic output order: by appearance in the file.
    out.sort_by_key(|f| f.offset);
    out
}

/// Pass 2 over one range with a prebuilt node table (legacy single-
/// range form used by [`parse`]).
pub fn parse_elements(
    input: &[u8],
    start: usize,
    end: usize,
    nodes: &NodeTable,
    filter: &MetadataFilter,
) -> Result<Vec<RawFeature>, ParseError> {
    let ways = collect_ways(input, start, end)?;
    let relations = collect_relations(input, start, end)?;
    Ok(assemble(&ways, &relations, nodes, filter))
}

fn way_ring(way: &WaySpec, nodes: &NodeTable) -> Option<Ring> {
    let pts: Vec<Point> = way
        .refs
        .iter()
        .filter_map(|r| nodes.get(r).copied())
        .collect();
    if pts.len() < 3 {
        return None;
    }
    Some(Ring::new(pts))
}

/// Full two-pass parse of an OSM XML document.
pub fn parse(input: &[u8], filter: &MetadataFilter) -> Result<Vec<RawFeature>, ParseError> {
    let nodes = collect_nodes(input, 0, input.len())?;
    parse_elements(input, 0, input.len(), &nodes, filter)
}

/// One opening tag with its attributes.
struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    /// Offset of the `<`.
    offset: usize,
    /// True when the tag self-closes (`/>`).
    self_closing: bool,
}

/// A `<way>` body: node refs, tags, and the position just past the
/// closing tag.
type WayBody = (Vec<u64>, Vec<(String, String)>, usize);

impl Element {
    fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key)?.parse().ok()
    }

    fn attr_f64(&self, key: &str) -> Option<f64> {
        self.attr(key)?.parse().ok()
    }
}

/// A minimal XML scanner sufficient for OSM files: elements,
/// attributes, comments and XML declarations. No entities or CDATA
/// (OSM planet files escape attribute values with standard entities,
/// which we pass through unexpanded — tags are compared byte-wise).
struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Advances to the next opening element that *starts* before
    /// `end`. Skips comments, declarations and closing tags.
    fn next_element(&mut self, end: usize) -> Result<Option<Element>, ParseError> {
        loop {
            let lt = match crate::split::find_marker(self.input, b"<", self.pos) {
                Some(p) if p < end => p,
                _ => return Ok(None),
            };
            self.pos = lt + 1;
            match self.input.get(self.pos) {
                Some(b'?') => {
                    // XML declaration: skip to '>'.
                    self.skip_to_gt()?;
                }
                Some(b'!') => {
                    // Comment: skip to '-->'.
                    match crate::split::find_marker(self.input, b"-->", self.pos) {
                        Some(p) => self.pos = p + 3,
                        None => return Ok(None),
                    }
                }
                Some(b'/') => {
                    // Closing tag: skip.
                    self.skip_to_gt()?;
                }
                Some(_) => return self.read_element(lt).map(Some),
                None => return Ok(None),
            }
        }
    }

    fn skip_to_gt(&mut self) -> Result<(), ParseError> {
        match crate::split::find_marker(self.input, b">", self.pos) {
            Some(p) => {
                self.pos = p + 1;
                Ok(())
            }
            None => Err(ParseError::syntax(self.pos as u64, "unterminated tag")),
        }
    }

    fn read_element(&mut self, offset: usize) -> Result<Element, ParseError> {
        let name_start = self.pos;
        while self
            .input
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.input[name_start..self.pos])
            .map_err(|_| ParseError::syntax(offset as u64, "non-UTF8 tag name"))?
            .to_owned();
        let mut attrs = Vec::new();
        loop {
            // Skip whitespace.
            while self
                .input
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            match self.input.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Element {
                        name,
                        attrs,
                        offset,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.input.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        return Ok(Element {
                            name,
                            attrs,
                            offset,
                            self_closing: true,
                        });
                    }
                    return Err(ParseError::syntax(
                        self.pos as u64,
                        "expected '>' after '/'",
                    ));
                }
                Some(_) => {
                    // attribute: key="value"
                    let key_start = self.pos;
                    while self
                        .input
                        .get(self.pos)
                        .is_some_and(|b| *b != b'=' && !b.is_ascii_whitespace())
                    {
                        self.pos += 1;
                    }
                    let key = std::str::from_utf8(&self.input[key_start..self.pos])
                        .map_err(|_| ParseError::syntax(key_start as u64, "non-UTF8 attr"))?
                        .to_owned();
                    if self.input.get(self.pos) != Some(&b'=') {
                        return Err(ParseError::syntax(self.pos as u64, "expected '='"));
                    }
                    self.pos += 1;
                    if self.input.get(self.pos) != Some(&b'"') {
                        return Err(ParseError::syntax(self.pos as u64, "expected '\"'"));
                    }
                    self.pos += 1;
                    let val_start = self.pos;
                    self.pos = crate::split::memchr(b'"', self.input, self.pos)
                        .unwrap_or(self.input.len());
                    let value = std::str::from_utf8(&self.input[val_start..self.pos])
                        .map_err(|_| ParseError::syntax(val_start as u64, "non-UTF8 value"))?
                        .to_owned();
                    self.pos += 1; // closing quote
                    attrs.push((key, value));
                }
                None => return Err(ParseError::syntax(self.pos as u64, "unterminated element")),
            }
        }
    }

    /// Skips over an element's content (if not self-closing).
    fn skip_element(&mut self, elem: &Element) -> Result<(), ParseError> {
        if elem.self_closing {
            return Ok(());
        }
        let close = format!("</{}>", elem.name);
        match crate::split::find_marker(self.input, close.as_bytes(), self.pos) {
            Some(p) => {
                self.pos = p + close.len();
                Ok(())
            }
            None => Ok(()), // Unclosed container (e.g. <osm>) — scan on.
        }
    }

    /// Reads the children of a `<way>`: `<nd ref>` and `<tag k v>`.
    /// Returns (refs, tags, end position after `</way>`).
    fn way_children(&mut self, elem: &Element) -> Result<WayBody, ParseError> {
        let mut refs = Vec::new();
        let mut tags = Vec::new();
        if elem.self_closing {
            return Ok((refs, tags, self.pos));
        }
        loop {
            let lt = crate::split::find_marker(self.input, b"<", self.pos)
                .ok_or_else(|| ParseError::syntax(self.pos as u64, "unterminated way"))?;
            self.pos = lt + 1;
            if self.input[self.pos..].starts_with(b"/way>") {
                self.pos += 5;
                return Ok((refs, tags, self.pos));
            }
            let child = self.read_element(lt)?;
            match child.name.as_str() {
                "nd" => {
                    if let Some(r) = child.attr_u64("ref") {
                        refs.push(r);
                    }
                }
                "tag" => {
                    if let (Some(k), Some(v)) = (child.attr("k"), child.attr("v")) {
                        tags.push((k.to_owned(), v.to_owned()));
                    }
                }
                _ => self.skip_element(&child)?,
            }
        }
    }

    /// Reads the children of a `<relation>`: way members with roles.
    fn relation_children(
        &mut self,
        elem: &Element,
    ) -> Result<(Vec<(u64, String)>, usize), ParseError> {
        let mut members = Vec::new();
        if elem.self_closing {
            return Ok((members, self.pos));
        }
        loop {
            let lt = crate::split::find_marker(self.input, b"<", self.pos)
                .ok_or_else(|| ParseError::syntax(self.pos as u64, "unterminated relation"))?;
            self.pos = lt + 1;
            if self.input[self.pos..].starts_with(b"/relation>") {
                self.pos += 10;
                return Ok((members, self.pos));
            }
            let child = self.read_element(lt)?;
            if child.name == "member" && child.attr("type") == Some("way") {
                if let Some(r) = child.attr_u64("ref") {
                    let role = child.attr("role").unwrap_or("outer").to_owned();
                    members.push((r, role));
                }
            } else {
                self.skip_element(&child)?;
            }
        }
    }
}
