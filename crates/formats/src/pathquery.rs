//! The XPath-style metadata query language (§4.4).
//!
//! "As pushdown transducers can handle XPath-style queries, AT-GIS
//! supports a similar query language for JSON that filters on the
//! structure or value of fields in the metadata." This module provides
//! that language: dotted paths over the feature's `properties` tree
//! with existence, equality and numeric comparisons, compiled into a
//! [`PathQuery`] the parsing stage evaluates per feature.
//!
//! Grammar (one predicate per query):
//!
//! ```text
//! query      := path | path op value
//! path       := ident ('.' ident)*
//! op         := '=' | '!=' | '<' | '>' | '<=' | '>='
//! value      := quoted string | number | true | false | null
//! ```
//!
//! Examples: `building`, `building = "yes"`, `levels >= 3`,
//! `address.city = "London"`.

use crate::ParseError;

/// Comparison operator of a path predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathOp {
    /// The path exists (any value).
    Exists,
    /// String/number/bool equality.
    Eq,
    /// Inequality.
    Ne,
    /// Numeric less-than.
    Lt,
    /// Numeric greater-than.
    Gt,
    /// Numeric ≤.
    Le,
    /// Numeric ≥.
    Ge,
}

/// A literal the predicate compares against.
#[derive(Debug, Clone, PartialEq)]
pub enum PathValue {
    /// Quoted string.
    Str(String),
    /// Number.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// JSON null.
    Null,
}

/// A compiled metadata path predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PathQuery {
    /// Path segments relative to the properties object.
    pub path: Vec<String>,
    /// Comparison operator.
    pub op: PathOp,
    /// Right-hand-side literal (`Null` for `Exists`).
    pub value: PathValue,
}

impl PathQuery {
    /// Parses the query text.
    pub fn parse(text: &str) -> Result<PathQuery, ParseError> {
        let text = text.trim();
        if text.is_empty() {
            return Err(ParseError::syntax(0, "empty path query"));
        }
        // Find the operator (two-char ops first).
        let ops: [(&str, PathOp); 6] = [
            ("!=", PathOp::Ne),
            ("<=", PathOp::Le),
            (">=", PathOp::Ge),
            ("=", PathOp::Eq),
            ("<", PathOp::Lt),
            (">", PathOp::Gt),
        ];
        let mut found: Option<(usize, &str, PathOp)> = None;
        for (sym, op) in ops {
            if let Some(at) = text.find(sym) {
                match found {
                    Some((prev, psym, _))
                        if prev < at || (prev == at && psym.len() >= sym.len()) => {}
                    _ => found = Some((at, sym, op)),
                }
            }
        }
        let (path_text, op, value_text) = match found {
            None => (text, PathOp::Exists, ""),
            Some((at, sym, op)) => (
                text[..at].trim_end(),
                op,
                text[at + sym.len()..].trim_start(),
            ),
        };
        let path: Vec<String> = path_text.split('.').map(|s| s.trim().to_owned()).collect();
        if path.iter().any(|s| s.is_empty()) {
            return Err(ParseError::syntax(0, format!("bad path {path_text:?}")));
        }
        let value = if op == PathOp::Exists {
            PathValue::Null
        } else {
            parse_value(value_text)?
        };
        if matches!(op, PathOp::Lt | PathOp::Gt | PathOp::Le | PathOp::Ge)
            && !matches!(value, PathValue::Num(_))
        {
            return Err(ParseError::syntax(
                0,
                "ordered comparison requires a numeric literal",
            ));
        }
        Ok(PathQuery { path, op, value })
    }

    /// Evaluates the predicate against a raw properties JSON object
    /// (the bytes of `{...}` including braces). Walks the object
    /// lazily without building a DOM, so the parsing stage can call it
    /// per feature.
    pub fn matches_json(&self, properties: &[u8]) -> bool {
        match lookup(properties, &self.path) {
            None => false,
            Some(raw) => self.compare(raw),
        }
    }

    fn compare(&self, raw: &[u8]) -> bool {
        let raw = trim(raw);
        match self.op {
            PathOp::Exists => true,
            PathOp::Eq => value_eq(raw, &self.value),
            PathOp::Ne => !value_eq(raw, &self.value),
            PathOp::Lt | PathOp::Gt | PathOp::Le | PathOp::Ge => {
                let (PathValue::Num(rhs), Some(lhs)) = (&self.value, parse_num(raw)) else {
                    return false;
                };
                match self.op {
                    PathOp::Lt => lhs < *rhs,
                    PathOp::Gt => lhs > *rhs,
                    PathOp::Le => lhs <= *rhs,
                    PathOp::Ge => lhs >= *rhs,
                    _ => unreachable!(),
                }
            }
        }
    }
}

fn parse_value(text: &str) -> Result<PathValue, ParseError> {
    let t = text.trim();
    if t.starts_with('"') && t.ends_with('"') && t.len() >= 2 {
        return Ok(PathValue::Str(t[1..t.len() - 1].to_owned()));
    }
    match t {
        "true" => return Ok(PathValue::Bool(true)),
        "false" => return Ok(PathValue::Bool(false)),
        "null" => return Ok(PathValue::Null),
        _ => {}
    }
    crate::number::decimal(t.as_bytes())
        .map_or_else(|| t.parse::<f64>(), Ok)
        .map(PathValue::Num)
        .map_err(|_| ParseError::syntax(0, format!("bad literal {t:?}")))
}

fn trim(raw: &[u8]) -> &[u8] {
    let start = raw
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(0);
    let end = raw
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
        .map(|e| e + 1)
        .unwrap_or(0);
    &raw[start.min(end)..end]
}

fn parse_num(raw: &[u8]) -> Option<f64> {
    crate::number::decimal(raw).or_else(|| std::str::from_utf8(raw).ok()?.trim().parse().ok())
}

fn value_eq(raw: &[u8], value: &PathValue) -> bool {
    match value {
        PathValue::Str(s) => {
            raw.first() == Some(&b'"')
                && raw.last() == Some(&b'"')
                && &raw[1..raw.len() - 1] == s.as_bytes()
        }
        PathValue::Num(n) => parse_num(raw) == Some(*n),
        PathValue::Bool(b) => raw == if *b { b"true" as &[u8] } else { b"false" },
        PathValue::Null => raw == b"null",
    }
}

/// Looks up a dotted path in a JSON object, returning the raw bytes of
/// the addressed value.
fn lookup<'a>(json: &'a [u8], path: &[String]) -> Option<&'a [u8]> {
    let mut cur = json;
    for (depth, key) in path.iter().enumerate() {
        cur = object_member(cur, key.as_bytes())?;
        if depth + 1 < path.len() {
            // Intermediate segments must address objects.
            if trim(cur).first() != Some(&b'{') {
                return None;
            }
        }
    }
    Some(cur)
}

/// Finds the raw value span of `key` in a JSON object's top level.
fn object_member<'a>(json: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let json = trim(json);
    if json.first() != Some(&b'{') {
        return None;
    }
    let mut i = 1usize;
    loop {
        i = skip_ws(json, i);
        if json.get(i) == Some(&b'}') || i >= json.len() {
            return None;
        }
        // Key string.
        let (k, next) = read_string(json, i)?;
        i = skip_ws(json, next);
        if json.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(json, i + 1);
        let end = skip_value(json, i)?;
        if k == key {
            return Some(&json[i..end]);
        }
        i = skip_ws(json, end);
        match json.get(i) {
            Some(&b',') => i += 1,
            _ => return None,
        }
    }
}

fn skip_ws(json: &[u8], mut i: usize) -> usize {
    while json.get(i).is_some_and(|b| b.is_ascii_whitespace()) {
        i += 1;
    }
    i
}

/// Reads a string starting at `i` (a `"`), returning contents and the
/// index after the closing quote.
fn read_string(json: &[u8], i: usize) -> Option<(&[u8], usize)> {
    if json.get(i) != Some(&b'"') {
        return None;
    }
    let mut j = i + 1;
    while j < json.len() {
        match json[j] {
            b'"' => return Some((&json[i + 1..j], j + 1)),
            b'\\' => j += 2,
            _ => j += 1,
        }
    }
    None
}

/// Returns the index just past the JSON value starting at `i`.
fn skip_value(json: &[u8], i: usize) -> Option<usize> {
    match json.get(i)? {
        b'"' => read_string(json, i).map(|(_, j)| j),
        b'{' | b'[' => {
            let mut depth = 0i32;
            let mut j = i;
            while j < json.len() {
                match json[j] {
                    b'"' => {
                        let (_, nj) = read_string(json, j)?;
                        j = nj;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j + 1);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            None
        }
        _ => {
            // Scalar: runs to the next , } ] or whitespace.
            let mut j = i;
            while j < json.len()
                && !matches!(json[j], b',' | b'}' | b']')
                && !json[j].is_ascii_whitespace()
            {
                j += 1;
            }
            Some(j)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROPS: &[u8] = br#"{"building":"yes","levels":4,"vacant":false,"address":{"city":"London","zip":"N1"},"note":"has = and . inside","renovated":null}"#;

    #[test]
    fn parse_forms() {
        let q = PathQuery::parse("building").unwrap();
        assert_eq!(q.op, PathOp::Exists);
        assert_eq!(q.path, vec!["building"]);

        let q = PathQuery::parse(r#"building = "yes""#).unwrap();
        assert_eq!(q.op, PathOp::Eq);
        assert_eq!(q.value, PathValue::Str("yes".into()));

        let q = PathQuery::parse("levels >= 3").unwrap();
        assert_eq!(q.op, PathOp::Ge);
        assert_eq!(q.value, PathValue::Num(3.0));

        let q = PathQuery::parse("address.city != \"Paris\"").unwrap();
        assert_eq!(q.path, vec!["address", "city"]);
        assert_eq!(q.op, PathOp::Ne);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PathQuery::parse("").is_err());
        assert!(PathQuery::parse(". = 1").is_err());
        assert!(
            PathQuery::parse("a < \"str\"").is_err(),
            "ordered needs number"
        );
        assert!(PathQuery::parse("a = nonsense").is_err());
    }

    #[test]
    fn existence() {
        assert!(PathQuery::parse("building").unwrap().matches_json(PROPS));
        assert!(!PathQuery::parse("missing").unwrap().matches_json(PROPS));
        assert!(PathQuery::parse("address.city")
            .unwrap()
            .matches_json(PROPS));
        assert!(!PathQuery::parse("address.street")
            .unwrap()
            .matches_json(PROPS));
        assert!(
            PathQuery::parse("renovated").unwrap().matches_json(PROPS),
            "null exists"
        );
    }

    #[test]
    fn string_equality() {
        assert!(PathQuery::parse(r#"building = "yes""#)
            .unwrap()
            .matches_json(PROPS));
        assert!(!PathQuery::parse(r#"building = "no""#)
            .unwrap()
            .matches_json(PROPS));
        assert!(PathQuery::parse(r#"building != "no""#)
            .unwrap()
            .matches_json(PROPS));
        assert!(PathQuery::parse(r#"address.city = "London""#)
            .unwrap()
            .matches_json(PROPS));
    }

    #[test]
    fn numeric_comparisons() {
        for (q, expect) in [
            ("levels = 4", true),
            ("levels != 4", false),
            ("levels > 3", true),
            ("levels >= 4", true),
            ("levels < 4", false),
            ("levels <= 4", true),
            ("levels > 100", false),
        ] {
            assert_eq!(
                PathQuery::parse(q).unwrap().matches_json(PROPS),
                expect,
                "{q}"
            );
        }
    }

    #[test]
    fn booleans_and_null() {
        assert!(PathQuery::parse("vacant = false")
            .unwrap()
            .matches_json(PROPS));
        assert!(!PathQuery::parse("vacant = true")
            .unwrap()
            .matches_json(PROPS));
        assert!(PathQuery::parse("renovated = null")
            .unwrap()
            .matches_json(PROPS));
    }

    #[test]
    fn operators_inside_string_values_do_not_confuse_lookup() {
        // The "note" value contains '=' and '.'; lookup must skip the
        // string correctly.
        assert!(PathQuery::parse("note").unwrap().matches_json(PROPS));
        assert!(PathQuery::parse(r#"note = "has = and . inside""#)
            .unwrap()
            .matches_json(PROPS));
    }

    #[test]
    fn nested_non_object_path_fails_cleanly() {
        assert!(!PathQuery::parse("building.sub")
            .unwrap()
            .matches_json(PROPS));
        assert!(!PathQuery::parse("x").unwrap().matches_json(b"not json"));
        assert!(!PathQuery::parse("x").unwrap().matches_json(b"[1,2]"));
    }

    #[test]
    fn whitespace_tolerant_json() {
        let spaced = br#"{ "a" : { "b" : 7 } }"#;
        assert!(PathQuery::parse("a.b = 7").unwrap().matches_json(spaced));
        assert!(PathQuery::parse("a.b >= 7").unwrap().matches_json(spaced));
    }
}
