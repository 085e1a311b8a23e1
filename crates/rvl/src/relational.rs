//! A small relational substrate for the **virtual** advertisement scenario.
//!
//! The paper (§2.2) allows peers to "define virtual views over their legacy
//! (XML or relational) databases", with schemas "populated on demand with
//! data residing in a relational or an XML peer base" (mappings provided by
//! SWIM \[9\]). We stand in for such a legacy store with an in-memory
//! relational [`Database`] plus [`TableMapping`]s from tables to RDF
//! population rules; XML documents load into the same tables
//! ([`VirtualBase::from_xml`]). A [`VirtualBase`] advertises an
//! active-schema without materialising anything, and populates a
//! description base only when a query actually arrives.

use crate::active::{ActiveProperty, ActiveSchema};
use sqpeer_rdfs::{Literal, Node, PropertyId, Range, Resource, Schema, Triple};
use sqpeer_store::DescriptionBase;
use std::collections::HashMap;
use std::sync::Arc;

/// A relational table with string-typed cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given columns.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn insert(&mut self, row: &[&str]) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch in `{}`",
            self.name
        );
        self.rows.push(row.iter().map(|c| c.to_string()).collect());
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// A set of named tables — one peer's legacy database.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a table.
    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

/// How a mapped column value becomes an RDF node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnMapping {
    /// `prefix + cell` becomes a resource URI.
    Resource {
        /// URI prefix prepended to the cell value.
        prefix: String,
    },
    /// The cell becomes a string literal.
    StringLiteral,
    /// The cell is parsed as an integer literal (unparsable cells are
    /// skipped).
    IntegerLiteral,
}

impl ColumnMapping {
    fn to_node(&self, cell: &str) -> Option<Node> {
        match self {
            ColumnMapping::Resource { prefix } => {
                Some(Node::Resource(Resource::new(format!("{prefix}{cell}"))))
            }
            ColumnMapping::StringLiteral => Some(Node::Literal(Literal::string(cell))),
            ColumnMapping::IntegerLiteral => cell
                .parse::<i64>()
                .ok()
                .map(|i| Node::Literal(Literal::Integer(i))),
        }
    }
}

/// A SWIM-style mapping rule: one table populates one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMapping {
    /// Source table name.
    pub table: String,
    /// Column providing the subject.
    pub subject_column: String,
    /// URI prefix for subjects.
    pub subject_prefix: String,
    /// Column providing the object.
    pub object_column: String,
    /// How object cells map to nodes.
    pub object: ColumnMapping,
    /// The populated property.
    pub property: PropertyId,
}

/// A peer base whose RDF content lives virtually in a relational database.
#[derive(Debug, Clone)]
pub struct VirtualBase {
    schema: Arc<Schema>,
    database: Database,
    mappings: Vec<TableMapping>,
}

impl VirtualBase {
    /// Creates a virtual base from a database and mapping rules.
    pub fn new(schema: Arc<Schema>, database: Database, mappings: Vec<TableMapping>) -> Self {
        VirtualBase {
            schema,
            database,
            mappings,
        }
    }

    /// Derives the advertised active-schema from the mapping rules alone —
    /// the **virtual** scenario advertises what *can* be populated without
    /// reading the data.
    pub fn active_schema(&self) -> ActiveSchema {
        let mut classes = Vec::new();
        let mut properties = Vec::new();
        for m in &self.mappings {
            let def = self.schema.property(m.property);
            classes.push(def.domain);
            let range = match def.range {
                Range::Class(rc) => {
                    classes.push(rc);
                    Some(rc)
                }
                Range::Literal(_) => None,
            };
            properties.push(ActiveProperty {
                property: m.property,
                domain: def.domain,
                range,
            });
        }
        classes.sort();
        classes.dedup();
        ActiveSchema::new(Arc::clone(&self.schema), classes, properties)
    }

    /// Populates a description base on demand, applying every mapping rule
    /// in order (the virtual scenario's query-time population). Returns the
    /// base and the number of triples produced.
    pub fn populate(&self) -> (DescriptionBase, usize) {
        let mut base = DescriptionBase::new(Arc::clone(&self.schema));
        let mut produced = 0;
        for m in &self.mappings {
            let Some(table) = self.database.table(&m.table) else {
                continue;
            };
            let (Some(si), Some(oi)) = (
                table.column_index(&m.subject_column),
                table.column_index(&m.object_column),
            ) else {
                continue;
            };
            for row in &table.rows {
                let Some(object) = m.object.to_node(&row[oi]) else {
                    continue;
                };
                let subject = Resource::new(format!("{}{}", m.subject_prefix, row[si]));
                if base.insert_described(Triple {
                    subject,
                    property: m.property,
                    object,
                }) {
                    produced += 1;
                }
            }
        }
        (base, produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{LiteralType, SchemaBuilder};

    fn schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b
            .property("age", c1, Range::Literal(LiteralType::Integer))
            .unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn sample_db() -> Database {
        let mut authors = Table::new("authors", &["id", "paper", "age"]);
        authors.insert(&["a1", "p1", "30"]);
        authors.insert(&["a1", "p2", "30"]);
        authors.insert(&["a2", "p1", "junk"]);
        let mut db = Database::new();
        db.add_table(authors);
        db
    }

    #[test]
    fn virtual_base_advertises_without_reading_data() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let vb = VirtualBase::new(
            Arc::clone(&schema),
            Database::new(), // empty database!
            vec![TableMapping {
                table: "authors".into(),
                subject_column: "id".into(),
                subject_prefix: "http://a/".into(),
                object_column: "paper".into(),
                object: ColumnMapping::Resource {
                    prefix: "http://p/".into(),
                },
                property: p1,
            }],
        );
        let active = vb.active_schema();
        assert!(active.has_property(p1));
        assert!(active.has_class(schema.class_by_name("C1").unwrap()));
    }

    #[test]
    fn populate_on_demand() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let age = schema.property_by_name("age").unwrap();
        let vb = VirtualBase::new(
            Arc::clone(&schema),
            sample_db(),
            vec![
                TableMapping {
                    table: "authors".into(),
                    subject_column: "id".into(),
                    subject_prefix: "http://a/".into(),
                    object_column: "paper".into(),
                    object: ColumnMapping::Resource {
                        prefix: "http://p/".into(),
                    },
                    property: p1,
                },
                TableMapping {
                    table: "authors".into(),
                    subject_column: "id".into(),
                    subject_prefix: "http://a/".into(),
                    object_column: "age".into(),
                    object: ColumnMapping::IntegerLiteral,
                    property: age,
                },
            ],
        );
        let (base, produced) = vb.populate();
        // 3 prop1 triples + 1 parsable age ("junk" row skipped, and the
        // duplicate a1 age collapses).
        assert_eq!(base.triples_direct(p1).count(), 3);
        assert_eq!(base.triples_direct(age).count(), 1);
        assert_eq!(produced, 4);
    }

    #[test]
    fn missing_table_or_column_populates_nothing() {
        let schema = schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let vb = VirtualBase::new(
            Arc::clone(&schema),
            sample_db(),
            vec![TableMapping {
                table: "nope".into(),
                subject_column: "id".into(),
                subject_prefix: String::new(),
                object_column: "paper".into(),
                object: ColumnMapping::StringLiteral,
                property: p1,
            }],
        );
        let (base, produced) = vb.populate();
        assert_eq!(produced, 0);
        assert!(base.is_empty());
    }
}
