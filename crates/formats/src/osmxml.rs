//! OpenStreetMap XML — the OSM-X dataset flavour.
//!
//! "OpenStreetMap XML is the most complex format to support because it
//! separates the data into multiple sections: first it lists all the
//! nodes that link a numeric identifier to a point in space; followed
//! by the ways that relate multiple nodes; and finally relations that
//! link nodes and ways to describe complex polygons. AT-GIS handles
//! the separation of point and polygon data by keeping a temporary
//! table of all points and ways …, which is constructed during the
//! first data pass" (§4.4).
//!
//! This module implements that design as one collection pass plus an
//! assembly step: [`collect_block`] visits each byte of a block once
//! and gathers its nodes, ways and relations without allocating per
//! element (names, attribute values and tags stay borrowed slices of
//! the input); blocks merge by concatenation in block order
//! ([`XmlBlock::append`]); [`assemble`] then sorts the node table once
//! and resolves ways and relations against it. Blocks split on
//! newlines. A way or relation belongs to the block its opening tag
//! starts in — its children are read past the block end, and the next
//! block ignores the stray children it starts with.

use crate::feature::{MetadataFilter, RawFeature};
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// What one collection pass gathers from a byte range: the temporary
/// table of points, ways and relations. Child lists live in flat
/// arenas shared by the whole block; each way and relation holds a
/// range into them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct XmlBlock<'a> {
    /// `(node id, coordinate)` in file order.
    nodes: Vec<(u64, Point)>,
    ways: Vec<Way>,
    relations: Vec<Relation>,
    /// Every `<nd ref>` of every way.
    refs: Vec<u64>,
    /// Every way's `<tag …/>` children, unparsed until a filter asks.
    tags: Vec<Attrs<'a>>,
    /// `(way id, role is "inner")` of every relation's way members.
    members: Vec<(u64, bool)>,
}

/// A collected way: id, byte span of the `<way>` element, and its
/// ranges of the block's `refs` and `tags`.
#[derive(Debug, Clone, PartialEq)]
struct Way {
    id: u64,
    offset: u64,
    len: u32,
    refs: Range<usize>,
    tags: Range<usize>,
}

/// A collected relation: id, byte span of the `<relation>` element,
/// and its range of the block's `members`.
#[derive(Debug, Clone, PartialEq)]
struct Relation {
    id: u64,
    offset: u64,
    len: u32,
    members: Range<usize>,
}

impl XmlBlock<'_> {
    /// The associative merge: appends the block that follows `self`
    /// in the file.
    pub fn append(&mut self, next: Self) {
        let shift = |r: Range<usize>, by: usize| r.start + by..r.end + by;
        let (refs, tags, members) = (self.refs.len(), self.tags.len(), self.members.len());
        self.nodes.extend(next.nodes);
        self.refs.extend(next.refs);
        self.tags.extend(next.tags);
        self.members.extend(next.members);
        self.ways.extend(next.ways.into_iter().map(|w| Way {
            refs: shift(w.refs, refs),
            tags: shift(w.tags, tags),
            ..w
        }));
        self.relations
            .extend(next.relations.into_iter().map(|r| Relation {
                members: shift(r.members, members),
                ..r
            }));
    }
}

/// The collection pass over one byte range: every node, way and
/// relation whose opening tag starts in `start..end`.
pub fn collect_block(input: &[u8], start: usize, end: usize) -> Result<XmlBlock<'_>, ParseError> {
    let mut block = XmlBlock::default();
    let mut scanner = Scanner { input, pos: start };
    while let Some(tag) = scanner.next_tag(end)? {
        let Tag::Open(elem) = tag else { continue };
        match elem.name {
            b"node" => {
                let (mut id, mut lat, mut lon) = (None, None, None);
                for (key, value) in elem.attrs {
                    match key {
                        b"id" => id = number(value),
                        b"lat" => lat = coordinate(value),
                        b"lon" => lon = coordinate(value),
                        _ => {}
                    }
                }
                let id = id.ok_or_else(|| elem.without_id())?;
                if let (Some(lat), Some(lon)) = (lat, lon) {
                    block.nodes.push((id, Point::new(lon, lat)));
                }
            }
            b"way" => {
                let (refs, tags) = (block.refs.len(), block.tags.len());
                let end_pos = scanner.children(&elem, |child| match child.name {
                    b"nd" => block
                        .refs
                        .extend(child.attrs.get(b"ref").and_then(number::<u64>)),
                    b"tag" => block.tags.push(child.attrs),
                    _ => {}
                })?;
                block.ways.push(Way {
                    id: elem.id()?,
                    offset: elem.offset as u64,
                    len: (end_pos - elem.offset) as u32,
                    refs: refs..block.refs.len(),
                    tags: tags..block.tags.len(),
                });
            }
            b"relation" => {
                let members = block.members.len();
                let end_pos = scanner.children(&elem, |child| {
                    if child.name == b"member" && child.attrs.get(b"type") == Some(b"way") {
                        let inner = child.attrs.get(b"role") == Some(b"inner");
                        let way = child.attrs.get(b"ref").and_then(number);
                        block.members.extend(way.map(|way| (way, inner)));
                    }
                })?;
                block.relations.push(Relation {
                    id: elem.id()?,
                    offset: elem.offset as u64,
                    len: (end_pos - elem.offset) as u32,
                    members: members..block.members.len(),
                });
            }
            // Containers (`<osm>`), a node's own tags, and the
            // children of a way that started in the previous block.
            _ => {}
        }
    }
    Ok(block)
}

/// The nodes of a byte range. Runs the whole collection pass: there
/// is no cheaper node-only scan.
pub fn collect_nodes(
    input: &[u8],
    start: usize,
    end: usize,
) -> Result<Vec<(u64, Point)>, ParseError> {
    collect_block(input, start, end).map(|block| block.nodes)
}

/// The temporary node table: `(id, coordinate)` sorted by id, one
/// entry per id.
struct NodeTable(Vec<(u64, Point)>);

impl NodeTable {
    fn new(mut nodes: Vec<(u64, Point)>) -> Self {
        // OSM files list nodes by ascending id, so the concatenation
        // of the blocks is usually a table already.
        if !nodes.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so equal ids stay in file order: the last wins.
            nodes.sort_by_key(|&(id, _)| id);
            nodes.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    *kept = *later;
                }
                same
            });
        }
        NodeTable(nodes)
    }

    /// The coordinates of the `refs` that resolve, in order.
    fn resolve(&self, refs: &[u64]) -> Vec<Point> {
        // A way's nodes are mostly created together and so carry
        // consecutive ids: try the entry after the previous hit
        // before searching.
        let mut next = 0;
        let mut points = Vec::with_capacity(refs.len());
        points.extend(refs.iter().filter_map(|&id| {
            let at = match self.0.get(next) {
                Some(&(found, _)) if found == id => next,
                _ => self.0.binary_search_by_key(&id, |&(id, _)| id).ok()?,
            };
            next = at + 1;
            Some(self.0[at].1)
        }));
        points
    }
}

/// Final assembly: resolves way refs against the node table, attaches
/// relation members and emits features. Runs once after the parallel
/// collection pass (its cost is proportional to the *object* count,
/// not the byte count, so it does not bound scalability).
pub fn assemble(mut block: XmlBlock<'_>, filter: &MetadataFilter) -> Vec<RawFeature> {
    let nodes = NodeTable::new(std::mem::take(&mut block.nodes));
    let XmlBlock { ways, refs, .. } = &block;
    let mut out = Vec::new();

    // Ways a relation names are emitted through it, not on their own.
    let mut in_relation = HashSet::new();
    if !block.relations.is_empty() {
        let way_index: HashMap<u64, &Way> = ways.iter().map(|w| (w.id, w)).collect();
        for rel in &block.relations {
            let mut outers = Vec::new();
            let mut inners = Vec::new();
            for &(way_id, inner) in &block.members[rel.members.clone()] {
                in_relation.insert(way_id);
                let Some(way) = way_index.get(&way_id) else {
                    continue;
                };
                let points = nodes.resolve(&refs[way.refs.clone()]);
                if points.len() >= 3 {
                    let ring = Ring::new(points);
                    if inner { &mut inners } else { &mut outers }.push(ring);
                }
            }
            if outers.is_empty() || !filter.accepts_id(rel.id) {
                continue;
            }
            // Each outer takes the inners its bbox contains; the last
            // one takes the rings themselves instead of copies.
            let last = outers.len() - 1;
            let mut polygons: Vec<Polygon> = outers
                .into_iter()
                .enumerate()
                .map(|(i, exterior)| {
                    let mbr = exterior.mbr();
                    let holes = if i == last {
                        let inners = std::mem::take(&mut inners).into_iter();
                        inners.filter(|h| mbr.contains(&h.mbr())).collect()
                    } else {
                        let inners = inners.iter().filter(|h| mbr.contains(&h.mbr()));
                        inners.cloned().collect()
                    };
                    Polygon::new(exterior, holes)
                })
                .collect();
            let geometry = if polygons.len() == 1 {
                Geometry::Polygon(polygons.pop().expect("one polygon"))
            } else {
                Geometry::MultiPolygon(MultiPolygon::new(polygons))
            };
            out.push(RawFeature {
                id: rel.id,
                geometry,
                offset: rel.offset,
                len: rel.len,
            });
        }
    }

    for w in ways {
        if in_relation.contains(&w.id) || !filter.accepts_id(w.id) {
            continue;
        }
        if filter.needs_tags()
            && !filter.accepts_tags(block.tags[w.tags.clone()].iter().filter_map(tag_pair))
        {
            continue;
        }
        let refs = &refs[w.refs.clone()];
        let points = nodes.resolve(refs);
        if points.len() < 2 {
            continue;
        }
        let closed = refs.len() >= 4 && refs.first() == refs.last();
        let geometry = if closed {
            Geometry::Polygon(Polygon::new(Ring::new(points), Vec::new()))
        } else {
            Geometry::LineString(LineString::new(points))
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

/// The `k`/`v` pair of a `<tag>` element, when both are present and
/// UTF-8.
fn tag_pair<'a>(attrs: &Attrs<'a>) -> Option<(&'a str, &'a str)> {
    let utf8 = |key| std::str::from_utf8(attrs.get(key)?).ok();
    Some((utf8(b"k")?, utf8(b"v")?))
}

/// Full parse of an OSM XML document: one collection pass, then
/// assembly.
pub fn parse(input: &[u8], filter: &MetadataFilter) -> Result<Vec<RawFeature>, ParseError> {
    Ok(assemble(collect_block(input, 0, input.len())?, filter))
}

/// Ids go through std's parsers.
fn number<T: std::str::FromStr>(text: &[u8]) -> Option<T> {
    std::str::from_utf8(text).ok()?.parse().ok()
}

/// Coordinates go through [`crate::number::decimal`] and fall back to
/// std's parser, so a coordinate is still bit-identical to every other
/// reader of the same text (a leading `+` or an exponent included).
fn coordinate(text: &[u8]) -> Option<f64> {
    crate::number::decimal(text).or_else(|| number(text))
}

/// One opening tag, borrowed from the input.
struct Element<'a> {
    name: &'a [u8],
    /// The `key="value"` pairs: everything between the name and the
    /// closing `>` or `/>`, already checked by the scanner.
    attrs: Attrs<'a>,
    /// Offset of the `<`.
    offset: usize,
    /// True when the tag self-closes (`/>`).
    self_closing: bool,
}

impl Element<'_> {
    fn without_id(&self) -> ParseError {
        ParseError::syntax(self.offset as u64, "node, way or relation without id")
    }

    fn id(&self) -> Result<u64, ParseError> {
        let id = self.attrs.get(b"id").and_then(number);
        id.ok_or_else(|| self.without_id())
    }
}

/// The first position at or after `from` whose byte satisfies `stop`,
/// or the end of `input`.
fn skip_until(input: &[u8], from: usize, stop: impl Fn(&u8) -> bool) -> usize {
    let rest = input.get(from..).unwrap_or_default();
    from + rest.iter().position(stop).unwrap_or(rest.len())
}

/// A `key="value"` attribute, both sides borrowed from the input.
type Pair<'a> = (&'a [u8], &'a [u8]);

/// Walks `key="value"` pairs. The scanner drives [`Attrs::next_pair`]
/// over the raw input to find where a tag ends; an element keeps the
/// span that checked out, for lookups to iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Attrs<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Attrs<'a> {
    fn get(mut self, key: &[u8]) -> Option<&'a [u8]> {
        self.find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The next pair, or `None` at the first non-whitespace byte that
    /// cannot start one (`>`, `/`, end of input), where `pos` stays.
    fn next_pair(&mut self) -> Result<Option<Pair<'a>>, ParseError> {
        let input = self.input;
        let key_start = skip_until(input, self.pos, |b| !b.is_ascii_whitespace());
        self.pos = key_start;
        if matches!(input.get(key_start), None | Some(b'>' | b'/')) {
            return Ok(None);
        }
        let key_end = skip_until(input, key_start, |b| *b == b'=' || b.is_ascii_whitespace());
        if input.get(key_end) != Some(&b'=') {
            return Err(ParseError::syntax(key_end as u64, "expected '='"));
        }
        let value_start = key_end + 2;
        if input.get(key_end + 1) != Some(&b'"') {
            return Err(ParseError::syntax(key_end as u64 + 1, "expected '\"'"));
        }
        let value_end = skip_until(input, value_start, |b| *b == b'"');
        if value_end == input.len() {
            let at = value_start as u64;
            return Err(ParseError::syntax(at, "unterminated attribute value"));
        }
        self.pos = value_end + 1;
        Ok(Some((
            &input[key_start..key_end],
            &input[value_start..value_end],
        )))
    }
}

impl<'a> Iterator for Attrs<'a> {
    type Item = Pair<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_pair().ok().flatten()
    }
}

enum Tag<'a> {
    Open(Element<'a>),
    /// `</name>`.
    Close(&'a [u8]),
}

/// A minimal XML scanner sufficient for OSM files: elements,
/// attributes, comments, declarations and DOCTYPEs. No entities or
/// CDATA (OSM planet files escape attribute values with standard
/// entities, which we pass through unexpanded — tags are compared
/// byte-wise).
struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Advances to the next opening or closing tag that *starts*
    /// before `end`, skipping comments, declarations and DOCTYPEs.
    fn next_tag(&mut self, end: usize) -> Result<Option<Tag<'a>>, ParseError> {
        loop {
            let lt = match crate::split::memchr(b'<', self.input, self.pos) {
                Some(p) if p < end => p,
                _ => return Ok(None),
            };
            self.pos = lt + 1;
            let rest = &self.input[self.pos..];
            match rest.first() {
                Some(b'!') if rest.starts_with(b"!--") => {
                    self.pos += 3;
                    self.skip_past(b"-->", "unterminated comment")?;
                }
                Some(b'?' | b'!') => self.skip_past(b">", "unterminated tag")?,
                Some(b'/') => {
                    // `</name`, optional whitespace, `>`: anything else
                    // would let the skip to the next `>` swallow the
                    // following record's opening tag.
                    let name_end = self.name_end(self.pos + 1);
                    let name = &self.input[self.pos + 1..name_end];
                    let gt = skip_until(self.input, name_end, |b| !b.is_ascii_whitespace());
                    if self.input.get(gt) != Some(&b'>') {
                        return Err(ParseError::syntax(gt as u64, "expected '>' in end tag"));
                    }
                    self.pos = gt + 1;
                    return Ok(Some(Tag::Close(name)));
                }
                Some(_) => return self.read_element(lt).map(|e| Some(Tag::Open(e))),
                None => return Ok(None),
            }
        }
    }

    fn skip_past(&mut self, marker: &[u8], or_else: &str) -> Result<(), ParseError> {
        match crate::split::find_marker(self.input, marker, self.pos) {
            Some(p) => {
                self.pos = p + marker.len();
                Ok(())
            }
            None => Err(ParseError::syntax(self.pos as u64, or_else)),
        }
    }

    fn name_end(&self, from: usize) -> usize {
        skip_until(self.input, from, |b| {
            !(b.is_ascii_alphanumeric() || *b == b'_')
        })
    }

    /// Reads the opening tag whose `<` is at `offset`; `pos` is just
    /// past the `<`.
    fn read_element(&mut self, offset: usize) -> Result<Element<'a>, ParseError> {
        let name_end = self.name_end(self.pos);
        let name = &self.input[self.pos..name_end];
        let mut walk = Attrs {
            input: self.input,
            pos: name_end,
        };
        while walk.next_pair()?.is_some() {}
        let attrs_end = walk.pos;
        let self_closing = match (self.input.get(attrs_end), self.input.get(attrs_end + 1)) {
            (Some(b'>'), _) => false,
            (Some(b'/'), Some(b'>')) => true,
            (Some(b'/'), _) => {
                let at = attrs_end as u64 + 1;
                return Err(ParseError::syntax(at, "expected '>' after '/'"));
            }
            _ => return Err(ParseError::syntax(attrs_end as u64, "unterminated element")),
        };
        self.pos = attrs_end + if self_closing { 2 } else { 1 };
        let attrs = Attrs {
            input: &self.input[name_end..attrs_end],
            pos: 0,
        };
        Ok(Element {
            name,
            attrs,
            offset,
            self_closing,
        })
    }

    /// Hands every opening tag inside `parent` to `visit` and returns
    /// the position just past `parent`'s closing tag. Children may lie
    /// beyond the block the parent started in. A record (`node`, `way`
    /// or `relation`) is never a child: an unclosed parent is an error
    /// at the record, whichever block the record falls in.
    fn children(
        &mut self,
        parent: &Element<'a>,
        mut visit: impl FnMut(Element<'a>),
    ) -> Result<usize, ParseError> {
        if parent.self_closing {
            return Ok(self.pos);
        }
        loop {
            match self.next_tag(self.input.len())? {
                Some(Tag::Open(child)) if matches!(child.name, b"node" | b"way" | b"relation") => {
                    let at = child.offset as u64;
                    return Err(ParseError::syntax(
                        at,
                        "unclosed element before this record",
                    ));
                }
                Some(Tag::Open(child)) => visit(child),
                Some(Tag::Close(name)) if name == parent.name => return Ok(self.pos),
                Some(Tag::Close(_)) => {}
                None => return Err(ParseError::syntax(self.pos as u64, "unterminated element")),
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="atgis-datagen">
 <node id="1" lat="0.0" lon="0.0"/>
 <node id="2" lat="0.0" lon="1.0"/>
 <node id="3" lat="1.0" lon="1.0"/>
 <node id="4" lat="1.0" lon="0.0"/>
 <node id="5" lat="0.25" lon="0.25"/>
 <node id="6" lat="0.25" lon="0.75"/>
 <node id="7" lat="0.75" lon="0.75"/>
 <node id="8" lat="0.75" lon="0.25"/>
 <node id="9" lat="5.0" lon="5.0"/>
 <node id="10" lat="6.0" lon="6.0"/>
 <way id="100"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/><tag k="building" v="yes"/></way>
 <way id="101"><nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/></way>
 <way id="102"><nd ref="9"/><nd ref="10"/><tag k="highway" v="path"/></way>
 <relation id="200"><member type="way" ref="100" role="outer"/><member type="way" ref="101" role="inner"/><tag k="type" v="multipolygon"/></relation>
</osm>
"#;

    /// The same objects as [`SAMPLE`] with every child on a line of
    /// its own, so newline cuts fall inside ways and relations.
    const MULTI_LINE: &str = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<node id="2" lat="0.0" lon="1.0"/>
<node id="3" lat="1.0" lon="1.0"/>
<way id="100">
 <nd ref="1"/>
 <nd ref="2"/>
 <nd ref="3"/>
 <nd ref="1"/>
 <tag k="building" v="yes"/>
</way>
<node id="4" lat="2.0" lon="2.0"/>
<way id="101">
 <nd ref="3"/>
 <nd ref="4"/>
</way>
<relation id="200">
 <member type="way" ref="100" role="outer"/>
 <member type="way" ref="101" role="inner"/>
 <tag k="type" v="multipolygon"/>
</relation>
</osm>
"#;

    #[test]
    fn collects_all_nodes() {
        let nodes = collect_nodes(SAMPLE.as_bytes(), 0, SAMPLE.len()).unwrap();
        assert_eq!(nodes.len(), 10);
        assert_eq!(nodes[0], (1, Point::new(0.0, 0.0)));
        assert_eq!(nodes[2], (3, Point::new(1.0, 1.0)), "lon is x, lat is y");
    }

    #[test]
    fn node_table_sorts_and_lets_the_last_duplicate_win() {
        let p = |x| Point::new(x, x);
        let nodes = NodeTable::new(vec![(7, p(1.0)), (3, p(2.0)), (7, p(3.0)), (5, p(4.0))]);
        // Consecutive hits, a step back, misses below, between and above.
        assert_eq!(
            nodes.resolve(&[3, 5, 7, 3]),
            [p(2.0), p(4.0), p(3.0), p(2.0)]
        );
        assert_eq!(nodes.resolve(&[0, 7, 4, 9, 5]), [p(3.0), p(4.0)]);
        assert!(NodeTable::new(Vec::new()).resolve(&[7]).is_empty());
    }

    #[test]
    fn assembles_ways_and_relations() {
        let features = parse(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        // Relation 200 (polygon w/ hole) + way 102 (linestring); ways
        // 100/101 are consumed by the relation.
        assert_eq!(features.len(), 2);
        let rel = features.iter().find(|f| f.id == 200).expect("relation");
        match &rel.geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!((p.area() - 0.75).abs() < 1e-12);
            }
            g => panic!("relation should be polygon, got {g:?}"),
        }
        let path = features.iter().find(|f| f.id == 102).expect("way");
        assert!(matches!(path.geometry, Geometry::LineString(_)));
    }

    #[test]
    fn closed_way_without_relation_is_polygon() {
        let doc = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<node id="2" lat="0.0" lon="2.0"/>
<node id="3" lat="2.0" lon="1.0"/>
<way id="50"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="1"/></way>
</osm>"#;
        let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert_eq!(features.len(), 1);
        match &features[0].geometry {
            Geometry::Polygon(p) => assert!((p.area() - 2.0).abs() < 1e-12),
            g => panic!("{g:?}"),
        }
    }

    #[test]
    fn tag_filter_applies_to_ways() {
        let features = parse(
            SAMPLE.as_bytes(),
            &MetadataFilter::KeyEquals {
                key: "highway".into(),
                value: "path".into(),
            },
        )
        .unwrap();
        // Relation passes (tag filtering applies to ways only here),
        // way 102 matches.
        assert!(features.iter().any(|f| f.id == 102));
    }

    #[test]
    fn dangling_node_refs_are_skipped() {
        let doc = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<way id="60"><nd ref="1"/><nd ref="999"/></way>
</osm>"#;
        let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert!(features.is_empty(), "one resolvable point is not enough");
    }

    #[test]
    fn comments_and_declaration_are_skipped() {
        let doc = r#"<?xml version="1.0"?>
<!-- a comment with <node id="99" lat="9" lon="9"/> inside -->
<osm><node id="1" lat="1.0" lon="2.0"/></osm>"#;
        let nodes = collect_nodes(doc.as_bytes(), 0, doc.len()).unwrap();
        assert_eq!(nodes, [(1, Point::new(2.0, 1.0))]);
    }

    /// Only `<!--` opens a comment: a DOCTYPE used to send the scanner
    /// looking for `-->` and, finding none, end the document with no
    /// features and no error.
    #[test]
    fn doctype_is_skipped_to_its_own_end() {
        let doc = r#"<?xml version="1.0"?>
<!DOCTYPE osm SYSTEM "osm.dtd">
<osm><node id="1" lat="1.0" lon="2.0"/><node id="2" lat="3.0" lon="4.0"/>
<way id="9"><nd ref="1"/><nd ref="2"/></way></osm>"#;
        let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert_eq!(features.len(), 1);
        assert_eq!(features[0].id, 9);
        // … and a DOCTYPE followed by a comment does not swallow what
        // lies between them.
        let doc = doc.replace("</osm>", "<!-- end --></osm>");
        assert_eq!(
            parse(doc.as_bytes(), &MetadataFilter::All).unwrap(),
            features
        );
    }

    #[test]
    fn unterminated_comment_is_an_error_not_end_of_input() {
        let doc = r#"<osm><node id="1" lat="1.0" lon="2.0"/><!-- never closed
<node id="2" lat="3.0" lon="4.0"/></osm>"#;
        let err = parse(doc.as_bytes(), &MetadataFilter::All).unwrap_err();
        assert!(err.to_string().contains("unterminated comment"), "{err}");
    }

    #[test]
    fn unterminated_attribute_value_is_an_error() {
        let doc = r#"<osm><node id="1" lat="1.0" lon="2.0/></osm>"#;
        let err = parse(doc.as_bytes(), &MetadataFilter::All).unwrap_err();
        assert!(err.to_string().contains("unterminated attribute"), "{err}");
    }

    #[test]
    fn offsets_point_at_way_elements() {
        let features = parse(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        for f in &features {
            let at = &SAMPLE.as_bytes()[f.offset as usize..];
            assert!(at.starts_with(b"<way") || at.starts_with(b"<relation"));
        }
    }

    /// The associative-merge law behind the block-parallel pass: for
    /// every newline cut, and every pair of cuts, the pieces'
    /// blocks appended in order equal the whole document's block —
    /// including ways and relations whose children straddle a cut.
    #[test]
    fn collect_block_is_split_invariant() {
        for doc in [SAMPLE, MULTI_LINE] {
            let input = doc.as_bytes();
            let whole = collect_block(input, 0, input.len()).unwrap();
            assert!(!whole.ways.is_empty() && !whole.relations.is_empty());
            let cuts: Vec<usize> = (0..input.len())
                .filter(|&i| input[i] == b'\n')
                .map(|i| i + 1)
                .collect();
            let pieces = |bounds: &[usize]| {
                let mut merged = XmlBlock::default();
                for w in bounds.windows(2) {
                    merged.append(collect_block(input, w[0], w[1]).unwrap());
                }
                merged
            };
            for (i, &a) in cuts.iter().enumerate() {
                assert_eq!(pieces(&[0, a, input.len()]), whole, "cut at {a}");
                for &b in &cuts[i + 1..] {
                    assert_eq!(pieces(&[0, a, b, input.len()]), whole, "cuts at {a}, {b}");
                }
            }
        }
    }

    /// Everything the differential suites compare, plus the byte span.
    /// `f64`'s `Debug` is round-trip exact, so equal strings mean
    /// equal bit patterns.
    fn exact(features: &[RawFeature]) -> Vec<String> {
        features.iter().map(|f| format!("{f:?}")).collect()
    }

    fn assert_matches_reference(doc: &[u8], what: &str) {
        let filters = [
            MetadataFilter::All,
            MetadataFilter::IdBelow(150),
            MetadataFilter::IdAtLeast(150),
            MetadataFilter::KeyEquals {
                key: "building".into(),
                value: "yes".into(),
            },
        ];
        for filter in &filters {
            let new = parse(doc, filter).expect("fused parse");
            let old = reference::parse(doc, filter).expect("reference parse");
            assert_eq!(exact(&new), exact(&old), "{what}, {filter:?}");
        }
    }

    #[test]
    fn fused_parse_matches_reference_on_generated_documents() {
        for seed in 0..12 {
            let dataset = atgis_datagen::OsmGenerator::new(seed).generate(40 + 25 * seed as usize);
            let doc = atgis_datagen::write_osm_xml(&dataset);
            let features = parse(&doc, &MetadataFilter::All).unwrap();
            assert!(features.len() >= 40, "seed {seed} parsed too little");
            assert_matches_reference(&doc, &format!("seed {seed}"));
        }
    }

    /// Shapes of valid OSM-XML the generator never writes.
    #[derive(Debug, Clone, Copy)]
    struct Style {
        /// One `<nd>`/`<tag>`/`<member>` per line.
        multi_line: bool,
        /// Attributes in a rolled order instead of id-lat-lon.
        permuted: bool,
        /// `version`, `timestamp`, `user` among the attributes.
        extra_attrs: bool,
        /// Blanks between attributes, before `/>` and between tags.
        spaced: bool,
        crlf: bool,
        /// The node section comes after ways and relations.
        nodes_last: bool,
        /// Some node ids appear twice; the later coordinate wins.
        duplicate_nodes: bool,
        /// Some `<nd>` name a node that does not exist.
        dangling_refs: bool,
        /// Some `<member>` name a way that does not exist.
        missing_ways: bool,
    }

    impl Style {
        /// One switch per bit, lowest first: `0..512` covers them all.
        fn from_bits(switches: u32) -> Self {
            let on = |bit: u32| switches & (1 << bit) != 0;
            Style {
                multi_line: on(0),
                permuted: on(1),
                extra_attrs: on(2),
                spaced: on(3),
                crlf: on(4),
                nodes_last: on(5),
                duplicate_nodes: on(6),
                dangling_refs: on(7),
                missing_ways: on(8),
            }
        }
    }

    /// A replayable stream of die rolls drawn by proptest.
    struct Dice<'a>(std::iter::Cycle<std::slice::Iter<'a, usize>>);

    impl Dice<'_> {
        fn roll(&mut self, sides: usize) -> usize {
            self.0.next().expect("cycle of a non-empty vec") % sides
        }
    }

    fn tag(
        style: Style,
        dice: &mut Dice,
        name: &str,
        attrs: &[(&str, String)],
        end: &str,
    ) -> String {
        let mut attrs: Vec<(&str, String)> = attrs.to_vec();
        if style.extra_attrs {
            for extra in [
                ("version", "3"),
                ("timestamp", "2016-06-26T14:05:00Z"),
                ("user", "a > b"),
            ] {
                attrs.insert(dice.roll(attrs.len() + 1), (extra.0, extra.1.to_owned()));
            }
        }
        if style.permuted {
            let by = dice.roll(attrs.len());
            attrs.rotate_left(by);
        }
        let gap = |dice: &mut Dice| {
            if style.spaced {
                " ".repeat(1 + dice.roll(3))
            } else {
                " ".to_owned()
            }
        };
        let mut out = format!("<{name}");
        for (k, v) in attrs {
            out += &format!("{}{k}=\"{v}\"", gap(dice));
        }
        if style.spaced {
            out += &" ".repeat(dice.roll(3));
        }
        out + end
    }

    /// A document of `ways` (vertex count, closed?) plus relations
    /// over consecutive closed ways, written in `style`.
    fn render(style: Style, ways: &[(usize, bool)], dice: &mut Dice) -> String {
        let sep = |dice: &mut Dice| match (style.multi_line, style.spaced) {
            (true, _) => "\n  ".to_owned(),
            (false, true) => " ".repeat(dice.roll(3)),
            (false, false) => String::new(),
        };
        let coord = |dice: &mut Dice| {
            let v = dice.roll(360_000) as f64 / 1000.0 - 180.0;
            if dice.roll(4) == 0 {
                format!("{v:e}")
            } else {
                format!("{v}")
            }
        };
        let (mut nodes, mut body) = (String::new(), String::new());
        let mut node = |dice: &mut Dice, id: u64| {
            let attrs = [
                ("id", id.to_string()),
                ("lat", coord(dice)),
                ("lon", coord(dice)),
            ];
            nodes += &format!(" {}\n", tag(style, dice, "node", &attrs, "/>"));
        };
        let mut next_node = 1u64;
        let mut closed_ways = Vec::new();
        for (i, &(vertices, closed)) in ways.iter().enumerate() {
            let way_id = 100 + i as u64;
            let first = next_node;
            let mut refs: Vec<u64> = (first..first + vertices as u64).collect();
            next_node += vertices as u64;
            refs.iter().for_each(|&id| node(dice, id));
            if style.duplicate_nodes && dice.roll(2) == 0 {
                let again = first + dice.roll(vertices) as u64;
                node(dice, again);
            }
            if closed {
                refs.push(first);
                closed_ways.push(way_id);
            }
            if style.dangling_refs && dice.roll(2) == 0 {
                refs.insert(dice.roll(refs.len()), 999_999);
            }
            body += &format!(
                " {}",
                tag(style, dice, "way", &[("id", way_id.to_string())], ">")
            );
            for r in refs {
                body += &sep(dice);
                body += &tag(style, dice, "nd", &[("ref", r.to_string())], "/>");
            }
            if dice.roll(2) == 0 {
                let attrs = [("k", "building".to_owned()), ("v", "yes".to_owned())];
                body += &sep(dice);
                body += &tag(style, dice, "tag", &attrs, "/>");
            }
            body += if style.multi_line {
                "\n </way>\n"
            } else {
                "</way>\n"
            };
        }
        for (i, pair) in closed_ways.chunks(2).enumerate() {
            let mut members: Vec<(u64, &str)> =
                pair.iter().copied().zip(["outer", "inner"]).collect();
            if style.missing_ways {
                members.insert(dice.roll(members.len() + 1), (777_777, "outer"));
            }
            body += &format!(
                " {}",
                tag(
                    style,
                    dice,
                    "relation",
                    &[("id", (200 + i).to_string())],
                    ">"
                )
            );
            for (way, role) in members {
                let attrs = [
                    ("type", "way".to_owned()),
                    ("ref", way.to_string()),
                    ("role", role.to_owned()),
                ];
                body += &sep(dice);
                body += &tag(style, dice, "member", &attrs, "/>");
            }
            body += if style.multi_line {
                "\n </relation>\n"
            } else {
                "</relation>\n"
            };
        }
        if style.missing_ways {
            body += " <relation id=\"299\"><member type=\"way\" ref=\"777777\" role=\"outer\"/></relation>\n";
        }
        let sections = if style.nodes_last {
            [body, nodes]
        } else {
            [nodes, body]
        };
        let doc = format!(
            "<?xml version=\"1.0\"?>\n<osm version=\"0.6\">\n{}</osm>\n",
            sections.concat()
        );
        if style.crlf {
            doc.replace('\n', "\r\n")
        } else {
            doc
        }
    }

    proptest! {
        #[test]
        fn fused_parse_matches_reference_on_handwritten_shapes(
            switches in 0u32..512,
            ways in prop::collection::vec((2usize..7, prop::bool::ANY), 1..7),
            rolls in prop::collection::vec(0usize..1_000_000, 32),
        ) {
            let style = Style::from_bits(switches);
            let doc = render(style, &ways, &mut Dice(rolls.iter().cycle()));
            assert_matches_reference(doc.as_bytes(), &format!("{style:?}\n{doc}"));
        }
    }

    /// Each switch alone and all together, so every shape is covered
    /// whatever proptest happens to draw.
    #[test]
    fn fused_parse_matches_reference_on_each_shape() {
        let ways = [
            (4, true),
            (3, true),
            (2, false),
            (5, true),
            (6, false),
            (3, true),
        ];
        let rolls: Vec<usize> = (0..32).map(|i| i * 7919 + 13).collect();
        for switches in (0..9).map(|bit| 1u32 << bit).chain([0, 511]) {
            let style = Style::from_bits(switches);
            let doc = render(style, &ways, &mut Dice(rolls.iter().cycle()));
            let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
            assert!(!features.is_empty(), "{style:?} parsed nothing:\n{doc}");
            assert_matches_reference(doc.as_bytes(), &format!("{style:?}\n{doc}"));
        }
    }
}
