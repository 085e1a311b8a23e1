//! Resolved RVL view definitions: materialization and active-schema
//! derivation.
//!
//! A [`ViewDefinition`] is an RVL program resolved against a community
//! schema. Its FROM clause is an RQL query pattern over the peer's base;
//! its view clauses say which classes and properties the bindings populate.
//! The same definition serves both advertisement scenarios of §2.2:
//!
//! * **materialized** — [`ViewDefinition::materialize`] evaluates the body
//!   and inserts the populated facts into a description base;
//! * **virtual** — the definition only *describes* what could be populated;
//!   [`ViewDefinition::active_schema`] derives the advertisement without
//!   touching any data (see also [`crate::relational::VirtualBase`]).

use crate::active::{ActiveProperty, ActiveSchema};
use crate::parser::{parse_view, ViewAst, ViewClauseAst};
use sqpeer_rdfs::{ClassId, Node, PropertyId, Range, Schema, Triple, Typing};
use sqpeer_rql::ast::{Projection, QueryAst};
use sqpeer_rql::{evaluate, QueryPattern, ResolveError, VarId};
use sqpeer_store::DescriptionBase;
use std::fmt;
use std::sync::Arc;

/// Errors raised while resolving an RVL program.
#[derive(Debug, Clone, PartialEq)]
pub enum RvlError {
    /// Lexing/parsing failed.
    Parse(sqpeer_rql::ParseError),
    /// The FROM clause failed RQL semantic analysis.
    Body(ResolveError),
    /// A view clause names an unknown class or property.
    UnknownTarget(String),
    /// A view-clause variable is not bound by the FROM clause.
    UnboundVariable(String),
    /// A class name was used with two arguments or a property with one.
    ArityMismatch(String),
}

impl fmt::Display for RvlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvlError::Parse(e) => write!(f, "{e}"),
            RvlError::Body(e) => write!(f, "in view FROM clause: {e}"),
            RvlError::UnknownTarget(n) => write!(f, "unknown view target `{n}`"),
            RvlError::UnboundVariable(v) => {
                write!(f, "view variable `{v}` is not bound by the FROM clause")
            }
            RvlError::ArityMismatch(n) => write!(f, "wrong number of arguments for `{n}`"),
        }
    }
}

impl std::error::Error for RvlError {}

/// One resolved view clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewClause {
    /// Populate `class` with bindings of `var`.
    Class {
        /// Target class.
        class: ClassId,
        /// Populating variable.
        var: VarId,
    },
    /// Populate `property` with `(subject, object)` bindings.
    Property {
        /// Target property.
        property: PropertyId,
        /// Subject variable.
        subject: VarId,
        /// Object variable.
        object: VarId,
    },
}

/// A resolved RVL view program.
#[derive(Debug, Clone)]
pub struct ViewDefinition {
    schema: Arc<Schema>,
    clauses: Vec<ViewClause>,
    body: QueryPattern,
}

impl ViewDefinition {
    /// Parses and resolves an RVL program against `schema`.
    pub fn parse(text: &str, schema: &Arc<Schema>) -> Result<Self, RvlError> {
        let ast = parse_view(text).map_err(RvlError::Parse)?;
        Self::resolve(&ast, schema)
    }

    /// Resolves a parsed program against `schema`.
    pub fn resolve(ast: &ViewAst, schema: &Arc<Schema>) -> Result<Self, RvlError> {
        // The body is the FROM/WHERE of an RQL query projecting every
        // variable (the view clauses pick what they need).
        let body_ast = QueryAst {
            projection: Projection::Star,
            paths: ast.paths.clone(),
            class_exprs: ast.class_exprs.clone(),
            filters: ast.filters.clone(),
            namespaces: ast.namespaces.clone(),
            order_by: None,
            limit: None,
        };
        let body = QueryPattern::resolve(&body_ast, schema).map_err(RvlError::Body)?;

        let lookup_var = |name: &str| -> Result<VarId, RvlError> {
            body.var_names()
                .iter()
                .position(|n| n == name)
                .map(|i| VarId(i as u16))
                .ok_or_else(|| RvlError::UnboundVariable(name.to_string()))
        };

        let mut clauses = Vec::with_capacity(ast.clauses.len());
        for clause in &ast.clauses {
            match clause {
                ViewClauseAst::Class { name, var } => {
                    let class = schema
                        .class_by_name(name)
                        .ok_or_else(|| resolve_target_err(schema, name))?;
                    clauses.push(ViewClause::Class {
                        class,
                        var: lookup_var(var)?,
                    });
                }
                ViewClauseAst::Property {
                    name,
                    subject,
                    object,
                } => {
                    let property = schema.property_by_name(name).ok_or_else(|| {
                        if schema.class_by_name(name).is_some() {
                            RvlError::ArityMismatch(name.clone())
                        } else {
                            RvlError::UnknownTarget(name.clone())
                        }
                    })?;
                    clauses.push(ViewClause::Property {
                        property,
                        subject: lookup_var(subject)?,
                        object: lookup_var(object)?,
                    });
                }
            }
        }
        Ok(ViewDefinition {
            schema: Arc::clone(schema),
            clauses,
            body,
        })
    }

    /// The community schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The resolved view clauses.
    pub fn clauses(&self) -> &[ViewClause] {
        &self.clauses
    }

    /// The view body (the FROM/WHERE query pattern).
    pub fn body(&self) -> &QueryPattern {
        &self.body
    }

    /// Derives the advertised [`ActiveSchema`]: the classes and properties
    /// this view (actually or potentially) populates, with property
    /// end-points narrowed by co-listed class clauses.
    pub fn active_schema(&self) -> ActiveSchema {
        let class_of_var = |v: VarId| -> Option<ClassId> {
            self.clauses.iter().find_map(|c| match c {
                ViewClause::Class { class, var } if *var == v => Some(*class),
                _ => None,
            })
        };
        let mut classes = Vec::new();
        let mut properties = Vec::new();
        for clause in &self.clauses {
            match *clause {
                ViewClause::Class { class, .. } => classes.push(class),
                ViewClause::Property {
                    property,
                    subject,
                    object,
                } => {
                    let def = self.schema.property(property);
                    let domain = class_of_var(subject)
                        .filter(|&c| self.schema.is_subclass(c, def.domain))
                        .unwrap_or(def.domain);
                    let range = match def.range {
                        Range::Class(rc) => Some(
                            class_of_var(object)
                                .filter(|&c| self.schema.is_subclass(c, rc))
                                .unwrap_or(rc),
                        ),
                        Range::Literal(_) => None,
                    };
                    properties.push(ActiveProperty {
                        property,
                        domain,
                        range,
                    });
                }
            }
        }
        ActiveSchema::new(Arc::clone(&self.schema), classes, properties)
    }

    /// Evaluates the body over `source` and inserts the populated facts
    /// into `target` (the **materialized** scenario). Returns the number of
    /// new facts.
    pub fn materialize(&self, source: &DescriptionBase, target: &mut DescriptionBase) -> usize {
        let result = evaluate(&self.body, source);
        let col = |v: VarId| -> Option<usize> {
            let name = self.body.var_name(v);
            result.column_index(name)
        };
        let mut added = 0;
        for row in result.rows.iter() {
            for clause in &self.clauses {
                match *clause {
                    ViewClause::Class { class, var } => {
                        let Some(i) = col(var) else { continue };
                        if let Node::Resource(r) = &row[i] {
                            if target.insert_typing(Typing::new(r.clone(), class)) {
                                added += 1;
                            }
                        }
                    }
                    ViewClause::Property {
                        property,
                        subject,
                        object,
                    } => {
                        let (Some(si), Some(oi)) = (col(subject), col(object)) else {
                            continue;
                        };
                        if let Node::Resource(s) = &row[si] {
                            let t = Triple::new(s.clone(), property, row[oi].clone());
                            if target.insert_triple(t) {
                                added += 1;
                            }
                        }
                    }
                }
            }
        }
        added
    }
}

fn resolve_target_err(schema: &Schema, name: &str) -> RvlError {
    if schema.property_by_name(name).is_some() {
        RvlError::ArityMismatch(name.to_string())
    } else {
        RvlError::UnknownTarget(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Resource, SchemaBuilder};

    fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let _ = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        Arc::new(b.finish().unwrap())
    }

    const FIG1_VIEW: &str = "VIEW n1:C5(X), n1:prop4(X,Y), n1:C6(Y) FROM {X}n1:prop4{Y}";

    #[test]
    fn figure1_view_active_schema() {
        let schema = fig1_schema();
        let view = ViewDefinition::parse(FIG1_VIEW, &schema).unwrap();
        let active = view.active_schema();
        let c5 = schema.class_by_name("C5").unwrap();
        let c6 = schema.class_by_name("C6").unwrap();
        let p4 = schema.property_by_name("prop4").unwrap();
        assert!(active.has_class(c5));
        assert!(active.has_class(c6));
        assert_eq!(
            active.active_properties(),
            &[ActiveProperty {
                property: p4,
                domain: c5,
                range: Some(c6)
            }]
        );
    }

    #[test]
    fn view_narrows_property_endpoints() {
        // Populate prop1 but declare its subjects C5: the advertisement's
        // domain is the narrower class.
        let schema = fig1_schema();
        let view = ViewDefinition::parse(
            "VIEW n1:C5(X), n1:prop1(X,Y) FROM {X;n1:C5}n1:prop1{Y}",
            &schema,
        )
        .unwrap();
        let active = view.active_schema();
        let ap = active.active_properties()[0];
        assert_eq!(ap.property, schema.property_by_name("prop1").unwrap());
        assert_eq!(ap.domain, schema.class_by_name("C5").unwrap());
        assert_eq!(ap.range, schema.class_by_name("C2"));
    }

    #[test]
    fn materialize_populates_target() {
        let schema = fig1_schema();
        let p4 = schema.property_by_name("prop4").unwrap();
        let c5 = schema.class_by_name("C5").unwrap();
        let mut source = DescriptionBase::new(Arc::clone(&schema));
        source.insert_described(Triple::new(Resource::new("r1"), p4, Resource::new("r2")));
        source.insert_described(Triple::new(Resource::new("r3"), p4, Resource::new("r4")));

        let view = ViewDefinition::parse(FIG1_VIEW, &schema).unwrap();
        let mut target = DescriptionBase::new(Arc::clone(&schema));
        let added = view.materialize(&source, &mut target);
        // 2 triples + 4 typings.
        assert_eq!(added, 6);
        assert_eq!(target.triples_direct(p4).count(), 2);
        assert_eq!(target.class_extent_direct(c5).count(), 2);
        // Re-materialization is idempotent.
        assert_eq!(view.materialize(&source, &mut target), 0);
    }

    #[test]
    fn materialize_via_superproperty_body() {
        // A view populating prop1 from the closed extent (prop1 ∪ prop4).
        let schema = fig1_schema();
        let p1 = schema.property_by_name("prop1").unwrap();
        let p4 = schema.property_by_name("prop4").unwrap();
        let mut source = DescriptionBase::new(Arc::clone(&schema));
        source.insert_described(Triple::new(Resource::new("a"), p1, Resource::new("b")));
        source.insert_described(Triple::new(Resource::new("c"), p4, Resource::new("d")));
        let view =
            ViewDefinition::parse("VIEW n1:prop1(X,Y) FROM {X}n1:prop1{Y}", &schema).unwrap();
        let mut target = DescriptionBase::new(Arc::clone(&schema));
        view.materialize(&source, &mut target);
        assert_eq!(target.triples_direct(p1).count(), 2);
    }

    #[test]
    fn class_driven_view_population() {
        // Populate C6 from C5's extent — no property traversal at all.
        let schema = fig1_schema();
        let c5 = schema.class_by_name("C5").unwrap();
        let c6 = schema.class_by_name("C6").unwrap();
        let mut source = DescriptionBase::new(Arc::clone(&schema));
        source.insert_typing(sqpeer_rdfs::Typing::new(Resource::new("m1"), c5));
        source.insert_typing(sqpeer_rdfs::Typing::new(Resource::new("m2"), c5));
        let view = ViewDefinition::parse("VIEW n1:C6(X) FROM {X;n1:C5}", &schema).unwrap();
        let mut target = DescriptionBase::new(Arc::clone(&schema));
        assert_eq!(view.materialize(&source, &mut target), 2);
        assert_eq!(target.class_extent_direct(c6).count(), 2);
    }

    #[test]
    fn resolution_errors() {
        let schema = fig1_schema();
        assert!(matches!(
            ViewDefinition::parse("VIEW n1:Nope(X) FROM {X}n1:prop4{Y}", &schema),
            Err(RvlError::UnknownTarget(_))
        ));
        assert!(matches!(
            ViewDefinition::parse("VIEW n1:C5(W) FROM {X}n1:prop4{Y}", &schema),
            Err(RvlError::UnboundVariable(_))
        ));
        assert!(matches!(
            ViewDefinition::parse("VIEW n1:prop4(X) FROM {X}n1:prop4{Y}", &schema),
            Err(RvlError::ArityMismatch(_))
        ));
        assert!(matches!(
            ViewDefinition::parse("VIEW n1:C5(X,Y) FROM {X}n1:prop4{Y}", &schema),
            Err(RvlError::ArityMismatch(_))
        ));
        assert!(matches!(
            ViewDefinition::parse("VIEW n1:C5(X) FROM {X}n1:nope{Y}", &schema),
            Err(RvlError::Body(_))
        ));
    }

    #[test]
    fn filtered_view_materializes_subset() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let adult = b.subclass("Adult", c1).unwrap();
        let age = b
            .property("age", c1, Range::Literal(sqpeer_rdfs::LiteralType::Integer))
            .unwrap();
        let schema = Arc::new(b.finish().unwrap());
        let mut source = DescriptionBase::new(Arc::clone(&schema));
        source.insert_described(Triple::new(
            Resource::new("old"),
            age,
            sqpeer_rdfs::Literal::Integer(40),
        ));
        source.insert_described(Triple::new(
            Resource::new("young"),
            age,
            sqpeer_rdfs::Literal::Integer(10),
        ));
        let view =
            ViewDefinition::parse("VIEW n1:Adult(X) FROM {X}n1:age{A} WHERE A >= 18", &schema)
                .unwrap();
        let mut target = DescriptionBase::new(Arc::clone(&schema));
        view.materialize(&source, &mut target);
        let adults = target.class_extent_direct(adult).collect::<Vec<_>>();
        assert_eq!(adults.len(), 1);
        assert_eq!(adults[0].uri(), "old");
    }
}
