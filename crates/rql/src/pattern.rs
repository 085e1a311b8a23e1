//! Semantic query patterns (paper §2.1).
//!
//! A [`QueryPattern`] is the logical representation SQPeer uses for both
//! query requests and (via RVL views) peer-base advertisements: a
//! conjunction of [`PathPattern`]s `{X;C}prop{Y;D}` plus a projection. The
//! end-point classes of each path pattern default to the property's RDF/S
//! domain and range, "obtained from their corresponding definitions in the
//! namespace" as the paper puts it for Figure 1.
//!
//! The [`JoinTree`] view of a pattern drives the Query-Processing Algorithm
//! of §2.4, which walks path patterns from a root towards its children.

use crate::ast::{LiteralSpec, NodeSpec, Operand, Projection, QueryAst};
use crate::error::ResolveError;
use sqpeer_rdfs::{ClassId, Literal, Node, PropertyId, Range, Resource, Schema};
use std::fmt::{self, Write};
use std::sync::{Arc, OnceLock};

/// The most path patterns a query may have: `plan::Subquery::covers` is a `u64`.
pub const MAX_PATTERNS: usize = 64;

/// Index of a variable within one [`QueryPattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u16);

/// A term in subject or object position: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable.
    Var(VarId),
    /// A constant resource.
    Resource(Resource),
    /// A constant literal (object position only).
    Literal(Literal),
}

impl Term {
    /// The variable id, if this term is a variable.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            _ => None,
        }
    }
}

/// One end of a path pattern: a term plus its effective class constraint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The term (variable or constant).
    pub term: Term,
    /// The effective class constraint; `None` when the end-point is
    /// literal-typed (datatype property object).
    pub class: Option<ClassId>,
}

/// A path pattern `{X;C}prop{Y;D}` — the unit of routing and distribution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathPattern {
    /// Subject end-point (always class-constrained).
    pub subject: Endpoint,
    /// The property.
    pub property: PropertyId,
    /// Object end-point.
    pub object: Endpoint,
}

impl PathPattern {
    /// The variables appearing in this pattern, subject first.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.subject
            .term
            .var()
            .into_iter()
            .chain(self.object.term.var())
    }

    /// The variable shared with `other`, if any.
    pub fn shared_var(&self, other: &PathPattern) -> Option<VarId> {
        self.vars().find(|v| other.vars().any(|w| w == *v))
    }
}

/// A standalone class-membership pattern `{X;C}` (an RQL class query).
///
/// Evaluated against the subsumption-closed class extent; the SQPeer
/// routing algorithm operates on *path* patterns only (§2.1), so class
/// patterns are a local-evaluation feature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClassPattern {
    /// The constrained term (variable or constant resource).
    pub term: Term,
    /// The class the term must belong to.
    pub class: ClassId,
}

impl ClassPattern {
    /// The variable, if the term is one.
    pub fn var(&self) -> Option<VarId> {
        self.term.var()
    }
}

/// A resolved WHERE-clause comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCondition {
    /// Left operand.
    pub left: CondOperand,
    /// Operator.
    pub op: crate::ast::CmpOp,
    /// Right operand.
    pub right: CondOperand,
}

/// An operand of a resolved condition.
#[derive(Debug, Clone, PartialEq)]
pub enum CondOperand {
    /// A variable.
    Var(VarId),
    /// A constant node.
    Const(Node),
}

/// A semantic query pattern: the conjunctive core of an RQL query.
///
/// Immutable after construction and shared behind an [`Arc`]: a clone is
/// a reference-count bump, so the plan layer can copy fetch leaves (and
/// whole plans) without copying the patterns they ship. Its RQL text is
/// rendered once, on first use, and shared the same way.
#[derive(Debug, Clone)]
pub struct QueryPattern(Arc<PatternData>);

#[derive(Debug, Clone)]
struct PatternData {
    schema: Arc<Schema>,
    var_names: Vec<String>,
    patterns: Vec<PathPattern>,
    class_patterns: Vec<ClassPattern>,
    projection: Vec<VarId>,
    filters: Vec<ResolvedCondition>,
    /// `ORDER BY` variable and direction (ascending = true).
    order_by: Option<(VarId, bool)>,
    /// `LIMIT` row count (Top-N queries, §5 future work).
    limit: Option<usize>,
    /// The rendered RQL text; reset by every edit ([`QueryPattern::edit`]).
    text: OnceLock<String>,
    /// The projected variables' names; reset with `text`.
    columns: OnceLock<Arc<[String]>>,
}

impl QueryPattern {
    /// Resolves a parsed query against a schema.
    pub fn resolve(ast: &QueryAst, schema: &Arc<Schema>) -> Result<Self, ResolveError> {
        if ast.paths.is_empty() && ast.class_exprs.is_empty() {
            return Err(ResolveError::EmptyFrom);
        }
        if ast.paths.len() > MAX_PATTERNS {
            return Err(ResolveError::TooManyPatterns(ast.paths.len()));
        }
        let mut builder = PatternBuilder::new(Arc::clone(schema));
        for path in &ast.paths {
            builder.add_path(path)?;
        }
        let mut class_patterns = Vec::with_capacity(ast.class_exprs.len());
        for spec in &ast.class_exprs {
            class_patterns.push(builder.add_class_expr(spec)?);
        }
        let projection = match &ast.projection {
            Projection::Star => (0..builder.var_names.len() as u16).map(VarId).collect(),
            Projection::Vars(names) => {
                let mut proj = Vec::with_capacity(names.len());
                for n in names {
                    proj.push(builder.lookup_var(n)?);
                }
                proj
            }
        };
        let mut filters = Vec::with_capacity(ast.filters.len());
        for cond in &ast.filters {
            filters.push(ResolvedCondition {
                left: builder.resolve_operand(&cond.left)?,
                op: cond.op,
                right: builder.resolve_operand(&cond.right)?,
            });
        }
        let order_by = match &ast.order_by {
            Some(ob) => Some((builder.lookup_var(&ob.var)?, ob.ascending)),
            None => None,
        };
        let qp = QueryPattern(Arc::new(PatternData {
            schema: Arc::clone(schema),
            var_names: builder.var_names,
            patterns: builder.patterns,
            class_patterns,
            projection,
            filters,
            order_by,
            limit: ast.limit,
            text: OnceLock::new(),
            columns: OnceLock::new(),
        }));
        qp.check_connected()?;
        qp.columns();
        Ok(qp)
    }

    /// Builds a pattern programmatically (used for rewriting, splitting and
    /// advertisements). `var_names` supplies the printable names.
    pub fn from_parts(
        schema: Arc<Schema>,
        var_names: Vec<String>,
        patterns: Vec<PathPattern>,
        projection: Vec<VarId>,
        filters: Vec<ResolvedCondition>,
    ) -> Self {
        QueryPattern(Arc::new(PatternData {
            schema,
            var_names,
            patterns,
            class_patterns: Vec::new(),
            projection,
            filters,
            order_by: None,
            limit: None,
            text: OnceLock::new(),
            columns: OnceLock::new(),
        }))
    }

    /// The shared data, for a builder to change: unshared first, and its
    /// text memo reset. Every builder edits through here.
    fn edit(&mut self) -> &mut PatternData {
        let data = Arc::make_mut(&mut self.0);
        data.text.take();
        data.columns.take();
        data
    }

    /// The standalone class-membership patterns.
    pub fn class_patterns(&self) -> &[ClassPattern] {
        &self.0.class_patterns
    }

    /// Attaches standalone class-membership patterns (programmatic
    /// construction; the parser produces them from `{X;C}` FROM items).
    pub fn with_class_patterns(mut self, class_patterns: Vec<ClassPattern>) -> Self {
        self.edit().class_patterns = class_patterns;
        self
    }

    /// The `ORDER BY` variable and direction, if any.
    pub fn order_by(&self) -> Option<(VarId, bool)> {
        self.0.order_by
    }

    /// The `LIMIT` count, if any.
    pub fn limit(&self) -> Option<usize> {
        self.0.limit
    }

    /// The schema this pattern is resolved against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.0.schema
    }

    /// The path patterns, in FROM-clause order.
    pub fn patterns(&self) -> &[PathPattern] {
        &self.0.patterns
    }

    /// The projected variables, in SELECT-clause order.
    pub fn projection(&self) -> &[VarId] {
        &self.0.projection
    }

    /// The resolved filters.
    pub fn filters(&self) -> &[ResolvedCondition] {
        &self.0.filters
    }

    /// The projected variables' names, in order: the columns of every
    /// answer, built once and shared — by a compiled query as it compiles,
    /// by a programmatic one (a plan's fragment) on first use.
    pub fn columns(&self) -> &Arc<[String]> {
        let names = self
            .projection()
            .iter()
            .map(|&v| self.var_name(v).to_string());
        self.0.columns.get_or_init(|| names.collect())
    }

    /// Printable name of variable `v`.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.0.var_names[v.0 as usize]
    }

    /// All variable names, indexed by `VarId`.
    pub fn var_names(&self) -> &[String] {
        &self.0.var_names
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.0.var_names.len()
    }

    /// The filters whose every variable `patterns` bind, in order: what a
    /// fragment of this query over `patterns` keeps.
    pub fn filters_bound_by(&self, patterns: &[PathPattern]) -> Vec<ResolvedCondition> {
        let bound = |o: &CondOperand| match o {
            CondOperand::Var(v) => patterns.iter().any(|p| p.vars().any(|b| b == *v)),
            CondOperand::Const(_) => true,
        };
        let kept = self
            .0
            .filters
            .iter()
            .filter(|f| bound(&f.left) && bound(&f.right));
        kept.cloned().collect()
    }

    /// Extracts the sub-pattern consisting of `indices` (into
    /// [`QueryPattern::patterns`]) with the given projection, keeping
    /// variable ids stable and the filters its patterns bind.
    pub fn subpattern(&self, indices: &[usize], projection: Vec<VarId>) -> QueryPattern {
        let patterns: Vec<_> = indices
            .iter()
            .map(|&i| self.0.patterns[i].clone())
            .collect();
        let filters = self.filters_bound_by(&patterns);
        // Class patterns and Top-N apply to the whole answer, never to
        // shipped fragments.
        let (schema, var_names) = (Arc::clone(&self.0.schema), self.0.var_names.clone());
        QueryPattern::from_parts(schema, var_names, patterns, projection, filters)
    }

    /// Builds the join tree rooted at the first path pattern, following
    /// shared-variable edges (§2.4: the processing algorithm starts "from
    /// the root of the annotated query pattern" and recurses into children).
    pub fn join_tree(&self) -> JoinTree {
        let n = self.0.patterns.len();
        let mut nodes: Vec<JoinTreeNode> = (0..n)
            .map(|i| JoinTreeNode {
                pattern: i,
                parent: None,
                join_var: None,
                children: Vec::new(),
            })
            .collect();
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut roots = Vec::new();
        // A forest: queries written by users are connected (enforced at
        // resolution), but composite subqueries built by the optimiser's
        // same-peer merge may have several components, evaluated as a
        // cartesian product in BFS order.
        for start in 0..n {
            if visited[start] {
                continue;
            }
            visited[start] = true;
            roots.push(start);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(i) = queue.pop_front() {
                order.push(i);
                for j in 0..n {
                    if !visited[j] {
                        if let Some(v) = self.0.patterns[i].shared_var(&self.0.patterns[j]) {
                            visited[j] = true;
                            nodes[j].parent = Some(i);
                            nodes[j].join_var = Some(v);
                            nodes[i].children.push(j);
                            queue.push_back(j);
                        }
                    }
                }
            }
        }
        JoinTree {
            nodes,
            order,
            roots,
        }
    }

    fn check_connected(&self) -> Result<(), ResolveError> {
        let tree = self.join_tree();
        if tree.roots.len() > 1 {
            return Err(ResolveError::DisconnectedPattern);
        }
        // Class patterns with variables must touch the path patterns when
        // both kinds are present (otherwise they would demand a cartesian
        // product the processing algorithm never builds).
        if !self.0.patterns.is_empty() {
            let path_vars: std::collections::HashSet<VarId> =
                self.0.patterns.iter().flat_map(|p| p.vars()).collect();
            for cp in &self.0.class_patterns {
                if let Some(v) = cp.var() {
                    if !path_vars.contains(&v) {
                        return Err(ResolveError::DisconnectedPattern);
                    }
                }
            }
        }
        Ok(())
    }

    /// The pattern as parseable RQL text (its `Display`), rendered on
    /// first use and kept.
    pub fn text(&self) -> &str {
        self.0
            .text
            .get_or_init(|| self.render().expect("writing to a String"))
    }

    fn render(&self) -> Result<String, fmt::Error> {
        let mut f = String::new();
        let proj = self.columns();
        write!(
            f,
            "SELECT {}",
            if proj.is_empty() {
                "*".to_string()
            } else {
                proj.join(", ")
            }
        )?;
        let fmt_endpoint = |e: &Endpoint| -> String {
            let term = match &e.term {
                Term::Var(v) => self.var_name(*v).to_string(),
                Term::Resource(r) => format!("&{}", r.uri()),
                Term::Literal(l) => l.to_string(),
            };
            match e.class {
                Some(c) => format!("{{{term};{}}}", self.0.schema.class_qname(c)),
                None => format!("{{{term}}}"),
            }
        };
        let mut items: Vec<_> = self
            .0
            .patterns
            .iter()
            .map(|p| {
                format!(
                    "{}{}{}",
                    fmt_endpoint(&p.subject),
                    self.0.schema.property_qname(p.property),
                    fmt_endpoint(&p.object)
                )
            })
            .collect();
        items.extend(self.0.class_patterns.iter().map(|cp| {
            fmt_endpoint(&Endpoint {
                term: cp.term.clone(),
                class: Some(cp.class),
            })
        }));
        write!(f, " FROM {}", items.join(", "))?;
        if !self.0.filters.is_empty() {
            let fmt_op = |o: &CondOperand| match o {
                CondOperand::Var(v) => self.var_name(*v).to_string(),
                CondOperand::Const(n) => n.to_string(),
            };
            let conds: Vec<_> = self
                .0
                .filters
                .iter()
                .map(|c| format!("{} {} {}", fmt_op(&c.left), c.op, fmt_op(&c.right)))
                .collect();
            write!(f, " WHERE {}", conds.join(" AND "))?;
        }
        if let Some((v, asc)) = self.0.order_by {
            write!(
                f,
                " ORDER BY {}{}",
                self.var_name(v),
                if asc { "" } else { " DESC" }
            )?;
        }
        if let Some(n) = self.0.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(f)
    }
}

/// Equal when every field the text renders is equal.
impl PartialEq for QueryPattern {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.var_names == b.var_names
                && a.patterns == b.patterns
                && a.class_patterns == b.class_patterns
                && a.projection == b.projection
                && a.filters == b.filters
                && (a.order_by, a.limit) == (b.order_by, b.limit))
    }
}

impl fmt::Display for QueryPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// The join tree over a query pattern's path patterns.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// One node per path pattern, indexed like
    /// [`QueryPattern::patterns`].
    pub nodes: Vec<JoinTreeNode>,
    /// BFS order over the whole forest (pattern 0's component first).
    pub order: Vec<usize>,
    /// The root pattern of each connected component (singleton for
    /// user-written queries).
    pub roots: Vec<usize>,
}

/// A node of the join tree.
#[derive(Debug, Clone)]
pub struct JoinTreeNode {
    /// Index of the path pattern.
    pub pattern: usize,
    /// Parent pattern index (`None` for the root).
    pub parent: Option<usize>,
    /// The variable joining this pattern to its parent.
    pub join_var: Option<VarId>,
    /// Child pattern indexes.
    pub children: Vec<usize>,
}

/// Internal state while resolving an AST.
struct PatternBuilder {
    schema: Arc<Schema>,
    var_names: Vec<String>,
    patterns: Vec<PathPattern>,
}

impl PatternBuilder {
    fn new(schema: Arc<Schema>) -> Self {
        PatternBuilder {
            schema,
            var_names: Vec::new(),
            patterns: Vec::new(),
        }
    }

    fn intern_var(&mut self, name: &str) -> VarId {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            VarId(i as u16)
        } else {
            self.var_names.push(name.to_string());
            VarId((self.var_names.len() - 1) as u16)
        }
    }

    fn lookup_var(&self, name: &str) -> Result<VarId, ResolveError> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u16))
            .ok_or_else(|| ResolveError::UnboundVariable(name.to_string()))
    }

    fn resolve_class(&self, name: &str) -> Result<ClassId, ResolveError> {
        self.schema
            .class_by_name(name)
            .ok_or_else(|| ResolveError::UnknownClass(name.to_string()))
    }

    /// Combines a declared end-point class with the user's constraint,
    /// yielding the effective class (the more specific one) or an error if
    /// the two can never intersect.
    fn effective_class(
        &self,
        declared: ClassId,
        user: Option<ClassId>,
        property: &str,
    ) -> Result<ClassId, ResolveError> {
        match user {
            None => Ok(declared),
            Some(u) => {
                if self.schema.is_subclass(u, declared) {
                    Ok(u)
                } else if self.schema.is_subclass(declared, u) {
                    Ok(declared)
                } else if self.schema.classes_overlap(u, declared) {
                    // Incomparable but satisfiable; keep the user's class,
                    // the evaluator checks both memberships via typing.
                    Ok(u)
                } else {
                    Err(ResolveError::IncompatibleClass {
                        class: self.schema.class_qname(u),
                        property: property.to_string(),
                    })
                }
            }
        }
    }

    fn add_path(&mut self, path: &crate::ast::PathExpr) -> Result<(), ResolveError> {
        let property = self
            .schema
            .property_by_name(&path.property)
            .ok_or_else(|| ResolveError::UnknownProperty(path.property.clone()))?;
        let def = self.schema.property(property);
        let (domain, range) = (def.domain, def.range);

        let subject = match &path.subject {
            NodeSpec::Var { name, class } => self.var_endpoint(name, class, domain, path)?,
            NodeSpec::Resource(uri) => Endpoint {
                term: Term::Resource(Resource::new(uri.as_str())),
                class: Some(domain),
            },
            NodeSpec::Literal(_) => return Err(ResolveError::LiteralSubject),
        };

        let object = match (&path.object, range) {
            (NodeSpec::Var { name, class }, Range::Class(rc)) => {
                self.var_endpoint(name, class, rc, path)?
            }
            (NodeSpec::Var { name, class }, Range::Literal(_)) => {
                if let Some(c) = class {
                    return Err(ResolveError::IncompatibleClass {
                        class: c.clone(),
                        property: path.property.clone(),
                    });
                }
                Endpoint {
                    term: Term::Var(self.intern_var(name)),
                    class: None,
                }
            }
            (NodeSpec::Resource(uri), Range::Class(rc)) => Endpoint {
                term: Term::Resource(Resource::new(uri.as_str())),
                class: Some(rc),
            },
            (NodeSpec::Resource(_), Range::Literal(_)) => {
                return Err(ResolveError::InvalidComparison(format!(
                    "property `{}` has a literal range but a resource object",
                    path.property
                )))
            }
            (NodeSpec::Literal(spec), Range::Literal(_)) => Endpoint {
                term: Term::Literal(lit_from_spec(spec)),
                class: None,
            },
            (NodeSpec::Literal(_), Range::Class(_)) => {
                return Err(ResolveError::InvalidComparison(format!(
                    "property `{}` has a class range but a literal object",
                    path.property
                )))
            }
        };

        self.patterns.push(PathPattern {
            subject,
            property,
            object,
        });
        Ok(())
    }

    /// A variable end-point of `path` whose property declares the class
    /// `declared` there, narrowed by the user's `class`.
    fn var_endpoint(
        &mut self,
        name: &str,
        class: &Option<String>,
        declared: ClassId,
        path: &crate::ast::PathExpr,
    ) -> Result<Endpoint, ResolveError> {
        let user = class.as_deref().map(|c| self.resolve_class(c));
        let class = Some(self.effective_class(declared, user.transpose()?, &path.property)?);
        let term = Term::Var(self.intern_var(name));
        Ok(Endpoint { term, class })
    }

    /// Resolves a standalone `{X;C}` FROM item.
    fn add_class_expr(&mut self, spec: &NodeSpec) -> Result<ClassPattern, ResolveError> {
        match spec {
            NodeSpec::Var {
                name,
                class: Some(class),
            } => Ok(ClassPattern {
                term: Term::Var(self.intern_var(name)),
                class: self.resolve_class(class)?,
            }),
            NodeSpec::Var { name, class: None } => {
                // `{X}` alone constrains nothing — reject with a pointer
                // at the missing class.
                Err(ResolveError::UnknownClass(format!(
                    "(none; `{{{name};Class}}` expected)"
                )))
            }
            NodeSpec::Resource(_) => Err(ResolveError::UnknownClass(
                "(class required in a membership pattern)".into(),
            )),
            NodeSpec::Literal(_) => Err(ResolveError::LiteralSubject),
        }
    }

    fn resolve_operand(&self, op: &Operand) -> Result<CondOperand, ResolveError> {
        Ok(match op {
            Operand::Var(v) => CondOperand::Var(self.lookup_var(v)?),
            Operand::Literal(spec) => CondOperand::Const(Node::Literal(lit_from_spec(spec))),
            Operand::Resource(uri) => {
                CondOperand::Const(Node::Resource(Resource::new(uri.as_str())))
            }
        })
    }
}

fn lit_from_spec(spec: &LiteralSpec) -> Literal {
    match spec {
        LiteralSpec::String(s) => Literal::string(s.as_str()),
        LiteralSpec::Integer(i) => Literal::Integer(*i),
        LiteralSpec::Float(x) => Literal::Float(*x),
        LiteralSpec::Boolean(b) => Literal::Boolean(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use sqpeer_rdfs::{LiteralType, SchemaBuilder};

    fn fig1_schema() -> Arc<Schema> {
        let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c3 = b.class("C3").unwrap();
        let c4 = b.class("C4").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("prop1", c1, Range::Class(c2)).unwrap();
        let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
        let _ = b.property("prop3", c3, Range::Class(c4)).unwrap();
        let _ = b.subproperty("prop4", p1, c5, Range::Class(c6)).unwrap();
        let _ = b
            .property("title", c1, Range::Literal(LiteralType::String))
            .unwrap();
        Arc::new(b.finish().unwrap())
    }

    fn compile(src: &str) -> Result<QueryPattern, ResolveError> {
        let schema = fig1_schema();
        QueryPattern::resolve(&parse_query(src).unwrap(), &schema)
    }

    #[test]
    fn figure1_pattern_extraction() {
        // "the end-point classes C1, C2 and C3 of properties prop1 and
        // prop2 are obtained from their corresponding definitions"
        let qp = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}").unwrap();
        let schema = qp.schema();
        assert_eq!(qp.patterns().len(), 2);
        let q1 = &qp.patterns()[0];
        assert_eq!(q1.subject.class, schema.class_by_name("C1"));
        assert_eq!(q1.object.class, schema.class_by_name("C2"));
        let q2 = &qp.patterns()[1];
        assert_eq!(q2.subject.class, schema.class_by_name("C2"));
        assert_eq!(q2.object.class, schema.class_by_name("C3"));
        // X and Y projected; Y is the join variable.
        assert_eq!(qp.projection().len(), 2);
        assert_eq!(q1.object.term.var(), q2.subject.term.var());
    }

    #[test]
    fn user_class_narrows_endpoint() {
        let qp = compile("SELECT X FROM {X;C5}prop1{Y}").unwrap();
        assert_eq!(
            qp.patterns()[0].subject.class,
            qp.schema().class_by_name("C5")
        );
    }

    #[test]
    fn incompatible_class_rejected() {
        let err = compile("SELECT X FROM {X;C3}prop1{Y}").unwrap_err();
        assert!(matches!(err, ResolveError::IncompatibleClass { .. }));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(matches!(
            compile("SELECT X FROM {X}nosuch{Y}"),
            Err(ResolveError::UnknownProperty(_))
        ));
        assert!(matches!(
            compile("SELECT X FROM {X;Nope}prop1{Y}"),
            Err(ResolveError::UnknownClass(_))
        ));
        assert!(matches!(
            compile("SELECT W FROM {X}prop1{Y}"),
            Err(ResolveError::UnboundVariable(_))
        ));
    }

    #[test]
    fn literal_subject_rejected() {
        assert_eq!(
            compile("SELECT X FROM {\"s\"}prop1{X}"),
            Err(ResolveError::LiteralSubject)
        );
    }

    #[test]
    fn literal_range_endpoint_has_no_class() {
        let qp = compile("SELECT X FROM {X}title{T}").unwrap();
        assert_eq!(qp.patterns()[0].object.class, None);
        // Class constraint on a literal endpoint is an error.
        assert!(compile("SELECT X FROM {X}title{T;C1}").is_err());
    }

    #[test]
    fn disconnected_pattern_rejected() {
        assert_eq!(
            compile("SELECT X FROM {X}prop1{Y}, {A}prop3{B}"),
            Err(ResolveError::DisconnectedPattern)
        );
    }

    #[test]
    fn join_tree_of_figure1() {
        let qp = compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z}, {Z}prop3{W}").unwrap();
        let tree = qp.join_tree();
        assert_eq!(tree.order, vec![0, 1, 2]);
        assert_eq!(tree.nodes[0].parent, None);
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert_eq!(tree.nodes[2].parent, Some(1));
        assert_eq!(tree.nodes[0].children, vec![1]);
        // Join variables are Y then Z.
        assert_eq!(
            tree.nodes[1].join_var.map(|v| qp.var_name(v).to_string()),
            Some("Y".into())
        );
        assert_eq!(
            tree.nodes[2].join_var.map(|v| qp.var_name(v).to_string()),
            Some("Z".into())
        );
    }

    #[test]
    fn star_projection_covers_all_vars() {
        let qp = compile("SELECT * FROM {X}prop1{Y}, {Y}prop2{Z}").unwrap();
        assert_eq!(qp.projection().len(), 3);
    }

    #[test]
    fn display_round_trips() {
        let qp = compile("SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z} WHERE Z != &http://r").unwrap();
        let text = qp.text();
        assert!(text.contains("n1:prop1"), "{text}");
        let schema = fig1_schema();
        let qp2 = QueryPattern::resolve(&parse_query(text).unwrap(), &schema).unwrap();
        assert_eq!(qp.patterns(), qp2.patterns());
        assert_eq!(qp.projection(), qp2.projection());
    }

    #[test]
    fn subpattern_keeps_relevant_filters() {
        let qp =
            compile("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z} WHERE Z = \"v\" AND X != &http://r")
                .unwrap();
        let y = qp.patterns()[0].object.term.var().unwrap();
        let sub = qp.subpattern(&[0], vec![y]);
        assert_eq!(sub.patterns().len(), 1);
        // Only the X filter survives (Z is unbound in the subpattern).
        assert_eq!(sub.filters().len(), 1);
        assert_eq!(sub.projection(), &[y]);
    }

    #[test]
    fn constant_endpoints() {
        let qp = compile("SELECT X FROM {&http://r}prop1{X}").unwrap();
        assert!(matches!(qp.patterns()[0].subject.term, Term::Resource(_)));
        let qp = compile("SELECT X FROM {X}title{\"hello\"}").unwrap();
        assert!(matches!(qp.patterns()[0].object.term, Term::Literal(_)));
    }
}
