//! A line-oriented text format for description bases (N-Triples-flavoured).
//!
//! Peers need to persist and exchange base snapshots (bootstrapping,
//! debugging, test fixtures). One fact per line:
//!
//! ```text
//! <http://ex/a> n1:prop1 <http://ex/b> .
//! <http://ex/a> n1:title "hello" .
//! <http://ex/a> n1:age 42 .
//! <http://ex/a> a n1:C1 .
//! ```
//!
//! Properties and classes are written as schema qnames (the community
//! schema travels separately — it is the SON's shared vocabulary);
//! resources as `<uri>`; literals as quoted strings, bare
//! integers/floats, or `true`/`false`. `a` types a resource. Lines
//! starting with `#` are comments.

use crate::DescriptionBase;
use sqpeer_rdfs::{Literal, Node, Resource, Schema, Triple, Typing};
use std::fmt::Write as _;
use std::sync::Arc;

/// A parse error with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// Serialises `base` to the text format (deterministic order: typings by
/// class then resource URI, triples by property then insertion order).
pub fn dump(base: &DescriptionBase) -> String {
    let schema = base.schema();
    let mut out = String::new();
    for c in schema.classes() {
        let mut members: Vec<&Resource> = base.class_extent_direct(c).collect();
        members.sort();
        for r in members {
            let _ = writeln!(out, "<{}> a {} .", r.uri(), schema.class_qname(c));
        }
    }
    for p in schema.properties() {
        for (s, o) in base.triples_direct(p) {
            let object = match o {
                Node::Resource(r) => format!("<{}>", r.uri()),
                Node::Literal(Literal::String(t)) => format!("{:?}", t.as_ref()),
                Node::Literal(Literal::Integer(i)) => i.to_string(),
                Node::Literal(Literal::Float(x)) => {
                    // Keep a decimal point so the parser reads a float back.
                    if x.fract() == 0.0 && x.is_finite() {
                        format!("{x:.1}")
                    } else {
                        x.to_string()
                    }
                }
                Node::Literal(Literal::Boolean(b)) => b.to_string(),
            };
            let _ = writeln!(
                out,
                "<{}> {} {} .",
                s.uri(),
                schema.property_qname(p),
                object
            );
        }
    }
    out
}

/// Parses the text format into a fresh base over `schema`. Typings are
/// inserted verbatim; triples are inserted *without* extra inference so a
/// dump/load round trip is exact.
pub fn load(schema: &Arc<Schema>, text: &str) -> Result<DescriptionBase, TextError> {
    let mut base = DescriptionBase::new(Arc::clone(schema));
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| TextError {
            line: line_no,
            message,
        };
        let line = line
            .strip_suffix('.')
            .ok_or_else(|| err("missing terminating `.`".into()))?
            .trim_end();

        let (subject, rest) =
            parse_uri_ref(line).ok_or_else(|| err("expected `<uri>` subject".into()))?;
        let rest = rest.trim_start();
        let (predicate, rest) = rest
            .split_once(' ')
            .ok_or_else(|| err("expected predicate".into()))?;
        let object_text = rest.trim();

        if predicate == "a" {
            let class = schema
                .class_by_name(object_text)
                .ok_or_else(|| err(format!("unknown class `{object_text}`")))?;
            base.insert_typing(Typing::new(Resource::new(subject), class));
            continue;
        }
        let property = schema
            .property_by_name(predicate)
            .ok_or_else(|| err(format!("unknown property `{predicate}`")))?;
        let object =
            parse_object(object_text).ok_or_else(|| err(format!("bad object `{object_text}`")))?;
        base.insert_triple(Triple::new(Resource::new(subject), property, object));
    }
    Ok(base)
}

/// Parses a leading `<uri>`; returns (uri, remainder).
fn parse_uri_ref(text: &str) -> Option<(&str, &str)> {
    let rest = text.strip_prefix('<')?;
    let end = rest.find('>')?;
    Some((&rest[..end], &rest[end + 1..]))
}

fn parse_object(text: &str) -> Option<Node> {
    if let Some((uri, rest)) = parse_uri_ref(text) {
        if rest.trim().is_empty() {
            return Some(Node::Resource(Resource::new(uri)));
        }
        return None;
    }
    if let Some(quoted) = text.strip_prefix('"') {
        let inner = quoted.strip_suffix('"')?;
        return Some(Node::Literal(Literal::string(unescape(inner)?)));
    }
    match text {
        "true" => return Some(Node::Literal(Literal::Boolean(true))),
        "false" => return Some(Node::Literal(Literal::Boolean(false))),
        _ => {}
    }
    if text.contains('.') || text.contains('e') || text.contains('E') {
        if let Ok(x) = text.parse::<f64>() {
            return Some(Node::Literal(Literal::Float(x)));
        }
    }
    text.parse::<i64>()
        .ok()
        .map(|i| Node::Literal(Literal::Integer(i)))
}

/// Undoes exactly the escapes `{:?}` writes for a string: `\n \r \t \0
/// \' \" \\` and `\u{…}`. Any other escape is refused.
fn unescape(inner: &str) -> Option<String> {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            '0' => '\0',
            c @ ('\'' | '"' | '\\') => c,
            'u' => {
                let (hex, rest) = chars.as_str().strip_prefix('{')?.split_once('}')?;
                chars = rest.chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{LiteralType, Range, SchemaBuilder};

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b
            .property("title", c1, Range::Literal(LiteralType::String))
            .unwrap();
        let _ = b
            .property("age", c1, Range::Literal(LiteralType::Integer))
            .unwrap();
        let _ = b
            .property("score", c1, Range::Literal(LiteralType::Float))
            .unwrap();
        let _ = b
            .property("open", c1, Range::Literal(LiteralType::Boolean))
            .unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn sample(schema: &Arc<Schema>) -> DescriptionBase {
        let mut base = DescriptionBase::new(Arc::clone(schema));
        let p = |n: &str| schema.property_by_name(n).unwrap();
        base.insert_described(Triple::new(
            Resource::new("http://x/a"),
            p("prop1"),
            Resource::new("http://x/b"),
        ));
        base.insert_described(Triple::new(
            Resource::new("http://x/a"),
            p("title"),
            Literal::string("with \"quotes\" and \\slash"),
        ));
        base.insert_described(Triple::new(
            Resource::new("http://x/a"),
            p("age"),
            Literal::Integer(-7),
        ));
        base.insert_described(Triple::new(
            Resource::new("http://x/a"),
            p("score"),
            Literal::Float(2.0),
        ));
        base.insert_described(Triple::new(
            Resource::new("http://x/a"),
            p("open"),
            Literal::Boolean(true),
        ));
        base
    }

    #[test]
    fn round_trip_is_exact() {
        let s = schema();
        let base = sample(&s);
        let text = dump(&base);
        let loaded = load(&s, &text).unwrap();
        assert_eq!(loaded.triple_count(), base.triple_count());
        assert_eq!(loaded.typing_count(), base.typing_count());
        // Dumps of original and round-tripped base are byte-identical.
        assert_eq!(dump(&loaded), text);
    }

    #[test]
    fn dump_is_deterministic_and_readable() {
        let s = schema();
        let text = dump(&sample(&s));
        assert!(text.contains("<http://x/a> a n1:C1 ."), "{text}");
        assert!(
            text.contains("<http://x/a> n1:prop1 <http://x/b> ."),
            "{text}"
        );
        assert!(text.contains("<http://x/a> n1:age -7 ."), "{text}");
        assert!(text.contains("<http://x/a> n1:score 2.0 ."), "{text}");
        assert!(text.contains("<http://x/a> n1:open true ."), "{text}");
        assert_eq!(dump(&sample(&s)), text);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let s = schema();
        let text = "# a comment\n\n<http://x/a> a n1:C1 .\n";
        let base = load(&s, text).unwrap();
        assert_eq!(base.typing_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let s = schema();
        let err = load(&s, "<http://x/a> a n1:C1 .\n<oops").unwrap_err();
        assert_eq!(err.line, 2);
        let err = load(&s, "<http://x/a> n1:nosuch <http://x/b> .").unwrap_err();
        assert!(err.message.contains("unknown property"));
        let err = load(&s, "<http://x/a> a n1:Nope .").unwrap_err();
        assert!(err.message.contains("unknown class"));
        let err = load(&s, "<http://x/a> n1:prop1 whatisthis .").unwrap_err();
        assert!(err.message.contains("bad object"));
        let err = load(&s, "<http://x/a> n1:prop1 <http://x/b>").unwrap_err();
        assert!(err.message.contains("terminating"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = schema();
        let mut base = DescriptionBase::new(Arc::clone(&s));
        let title = s.property_by_name("title").unwrap();
        let tricky = "line\\with \"many\" \\\" things";
        base.insert_triple(Triple::new(
            Resource::new("http://x/t"),
            title,
            Literal::string(tricky),
        ));
        let loaded = load(&s, &dump(&base)).unwrap();
        let (_, obj) = loaded.triples_direct(title).next().unwrap();
        assert_eq!(obj, &Node::Literal(Literal::string(tricky)));
    }
}
