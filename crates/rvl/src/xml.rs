//! An XML-document loader for the **virtual** advertisement scenario.
//!
//! §2.2 lets peers define views over "legacy (XML or relational)
//! databases". There is one virtual base, the relational
//! [`VirtualBase`]; this module is its XML face: a minimal element tree
//! plus path-based mappings ([`PathMapping`], the XML side of the SWIM
//! \[9\] mapping layer) that [`VirtualBase::from_xml`] turns into tables
//! and [`TableMapping`]s.

use crate::relational::{ColumnMapping, Database, Table, TableMapping, VirtualBase};
use sqpeer_rdfs::{PropertyId, Schema};
use std::sync::Arc;

/// One XML element: a tag, attributes, text content and children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub tag: String,
    /// Attribute name/value pairs, in document order.
    pub attributes: Vec<(String, String)>,
    /// Concatenated text content directly under this element.
    pub text: String,
    /// Child elements, in document order.
    pub children: Vec<Element>,
}

impl Element {
    /// Creates an element with the given tag.
    pub fn new(tag: &str) -> Self {
        Element {
            tag: tag.to_string(),
            ..Element::default()
        }
    }

    /// Builder: sets an attribute.
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        self.attributes.push((name.to_string(), value.to_string()));
        self
    }

    /// Builder: sets the text content.
    pub fn text(mut self, text: &str) -> Self {
        self.text = text.to_string();
        self
    }

    /// Builder: appends a child.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// The value of attribute `name`, if present.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All descendants (including self) matching a `/`-separated tag path
    /// rooted at this element, e.g. `library/book`.
    pub fn select<'a>(&'a self, path: &str) -> Vec<&'a Element> {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut current = vec![self];
        for (i, seg) in segments.iter().enumerate() {
            if i == 0 {
                current.retain(|e| e.tag == *seg);
            } else {
                current = current
                    .into_iter()
                    .flat_map(|e| e.children.iter().filter(|c| c.tag == *seg))
                    .collect();
            }
        }
        current
    }
}

/// Where a mapped value comes from within a selected element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueSource {
    /// An attribute of the element.
    Attribute(String),
    /// The text of a named child element.
    ChildText(String),
    /// The element's own text content.
    Text,
}

impl ValueSource {
    fn extract(&self, element: &Element) -> Option<String> {
        match self {
            ValueSource::Attribute(name) => element.attribute(name).map(str::to_string),
            ValueSource::ChildText(tag) => element
                .children
                .iter()
                .find(|c| &c.tag == tag)
                .map(|c| c.text.clone())
                .filter(|t| !t.is_empty()),
            ValueSource::Text => {
                if element.text.is_empty() {
                    None
                } else {
                    Some(element.text.clone())
                }
            }
        }
    }
}

/// A SWIM-style XML mapping: elements matching `path` populate `property`
/// with (subject, object) values drawn from the element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathMapping {
    /// `/`-separated tag path selecting the mapped elements.
    pub path: String,
    /// Where the subject value comes from.
    pub subject: ValueSource,
    /// URI prefix for subjects.
    pub subject_prefix: String,
    /// Where the object value comes from.
    pub object: ValueSource,
    /// How the object value becomes a node.
    pub object_kind: ColumnMapping,
    /// The populated property.
    pub property: PropertyId,
}

impl VirtualBase {
    /// Loads an XML document into a virtual base: each path mapping's
    /// selected elements become the rows of a two-column table, one
    /// (subject value, object value) row per element that has both, read
    /// back by the matching [`TableMapping`].
    pub fn from_xml(schema: Arc<Schema>, root: &Element, mappings: Vec<PathMapping>) -> Self {
        let mut database = Database::new();
        let mut rules = Vec::with_capacity(mappings.len());
        for (i, m) in mappings.into_iter().enumerate() {
            let mut table = Table::new(&format!("{i}:{}", m.path), &["subject", "object"]);
            let selected = root.select(&m.path).into_iter();
            table.rows.extend(
                selected.filter_map(|e| Some(vec![m.subject.extract(e)?, m.object.extract(e)?])),
            );
            rules.push(TableMapping {
                table: table.name.clone(),
                subject_column: "subject".into(),
                subject_prefix: m.subject_prefix,
                object_column: "object".into(),
                object: m.object_kind,
                property: m.property,
            });
            database.add_table(table);
        }
        VirtualBase::new(schema, database, rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{LiteralType, Range, SchemaBuilder};

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b
            .property("year", c1, Range::Literal(LiteralType::Integer))
            .unwrap();
        Arc::new(b.finish().unwrap())
    }

    /// `<library><book id="b1" year="2004"><author>kokkinidis</author>
    /// </book>…</library>`
    fn document() -> Element {
        Element::new("library")
            .child(
                Element::new("book")
                    .attr("id", "b1")
                    .attr("year", "2004")
                    .child(Element::new("author").text("kokkinidis")),
            )
            .child(
                Element::new("book")
                    .attr("id", "b2")
                    .attr("year", "oops")
                    .child(Element::new("author").text("christophides")),
            )
            .child(Element::new("journal").attr("id", "j1"))
    }

    fn mappings(schema: &Arc<Schema>) -> Vec<PathMapping> {
        vec![
            PathMapping {
                path: "library/book".into(),
                subject: ValueSource::Attribute("id".into()),
                subject_prefix: "http://lib/".into(),
                object: ValueSource::ChildText("author".into()),
                object_kind: ColumnMapping::Resource {
                    prefix: "http://people/".into(),
                },
                property: schema.property_by_name("prop1").unwrap(),
            },
            PathMapping {
                path: "library/book".into(),
                subject: ValueSource::Attribute("id".into()),
                subject_prefix: "http://lib/".into(),
                object: ValueSource::Attribute("year".into()),
                object_kind: ColumnMapping::IntegerLiteral,
                property: schema.property_by_name("year").unwrap(),
            },
        ]
    }

    #[test]
    fn selection_walks_tag_paths() {
        let doc = document();
        assert_eq!(doc.select("library/book").len(), 2);
        assert_eq!(doc.select("library/journal").len(), 1);
        assert_eq!(doc.select("library/nothing").len(), 0);
        assert_eq!(doc.select("wrongroot/book").len(), 0);
        assert_eq!(doc.select("library").len(), 1);
    }

    #[test]
    fn populate_from_document() {
        let schema = schema();
        let xb = VirtualBase::from_xml(Arc::clone(&schema), &document(), mappings(&schema));
        let (base, produced) = xb.populate();
        let prop1 = schema.property_by_name("prop1").unwrap();
        let year = schema.property_by_name("year").unwrap();
        // Two author triples; only b1's year parses as an integer.
        assert_eq!(base.triples_direct(prop1).count(), 2);
        assert_eq!(base.triples_direct(year).count(), 1);
        assert_eq!(produced, 3);
        // RDF/S typing was inferred on population.
        let c1 = schema.class_by_name("C1").unwrap();
        assert_eq!(base.class_extent_closed(c1).len(), 2);
    }

    #[test]
    fn xml_and_table_sources_give_the_same_base() {
        let schema = schema();
        let mut books = Table::new("books", &["id", "author", "year"]);
        books.insert(&["b1", "kokkinidis", "2004"]);
        books.insert(&["b2", "christophides", "oops"]);
        let mut db = Database::new();
        db.add_table(books);
        let rule = |object_column: &str, object: ColumnMapping, property: &str| TableMapping {
            table: "books".into(),
            subject_column: "id".into(),
            subject_prefix: "http://lib/".into(),
            object_column: object_column.into(),
            object,
            property: schema.property_by_name(property).unwrap(),
        };
        let people = ColumnMapping::Resource {
            prefix: "http://people/".into(),
        };
        let relational = VirtualBase::new(
            Arc::clone(&schema),
            db,
            vec![
                rule("author", people, "prop1"),
                rule("year", ColumnMapping::IntegerLiteral, "year"),
            ],
        );
        let xml = VirtualBase::from_xml(Arc::clone(&schema), &document(), mappings(&schema));
        let ((rb, rn), (xb, xn)) = (relational.populate(), xml.populate());
        assert_eq!(rn, xn);
        assert_eq!(sqpeer_store::dump(&rb), sqpeer_store::dump(&xb));
        assert_eq!(relational.active_schema(), xml.active_schema());
    }

    #[test]
    fn advertises_without_reading_the_document() {
        let schema = schema();
        let xb = VirtualBase::from_xml(
            Arc::clone(&schema),
            &Element::new("empty"),
            mappings(&schema),
        );
        let active = xb.active_schema();
        assert!(active.has_property(schema.property_by_name("prop1").unwrap()));
        assert!(active.has_property(schema.property_by_name("year").unwrap()));
        // The (empty) document yields nothing at query time.
        assert_eq!(xb.populate().1, 0);
    }

    #[test]
    fn missing_sources_are_skipped() {
        let schema = schema();
        let doc = Element::new("library")
            .child(Element::new("book")) // no id, no author
            .child(Element::new("book").attr("id", "b9")); // no author
        let xb = VirtualBase::from_xml(Arc::clone(&schema), &doc, mappings(&schema));
        assert_eq!(xb.populate().1, 0);
    }
}
