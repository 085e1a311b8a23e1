//! The RQL conjunctive query fragment used by SQPeer.
//!
//! The paper (§2.1) restricts SQPeer queries to "conjunctive query patterns
//! formed only by RQL path expressions and projections". This crate
//! implements exactly that fragment, end to end:
//!
//! * a [`lexer`] and recursive-descent [`parser`] for the concrete syntax
//!
//!   ```text
//!   SELECT X, Y
//!   FROM   {X;C1}prop1{Y}, {Y}prop2{Z}
//!   WHERE  Z = "value"
//!   USING NAMESPACE n1 = &http://example.org/n1#
//!   ```
//!
//! * semantic analysis against a community [`Schema`]
//!   producing the **semantic query pattern** ([`pattern::QueryPattern`]) of
//!   Figure 1 — path patterns `{X;C1}prop1{Y;C2}` whose end-point classes
//!   default to the property's RDF/S domain/range,
//! * a local [`eval`]uator executing query patterns against a peer's
//!   [`DescriptionBase`](sqpeer_store::DescriptionBase) with set semantics,
//!   used both by simple-peers answering subqueries and by the centralised
//!   oracle in the test suite.

pub mod ast;
mod distinct;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod pattern;
mod rows;

pub use ast::{CmpOp, Condition, NodeSpec, Operand, PathExpr, Projection, QueryAst};
pub use distinct::UnionAcc;
pub use error::{ParseError, ResolveError, RqlError};
pub use eval::{
    evaluate, evaluate_reference, evaluate_snapshot, node_cmp, stats_join_order, ResultSet,
};
pub use lexer::{Lexer, Token, TokenKind};
pub use parser::parse_query;
pub use pattern::{
    Endpoint, JoinTree, JoinTreeNode, PathPattern, QueryPattern, ResolvedCondition, Term, VarId,
    MAX_PATTERNS,
};
pub use rows::{RowRef, Rows};

use sqpeer_rdfs::Schema;

/// Parses and resolves an RQL query text against a schema in one step.
///
/// This is the path a client-peer query takes when it enters the middleware
/// (parse → semantic query pattern).
pub fn compile(
    text: &str,
    schema: &std::sync::Arc<Schema>,
) -> Result<QueryPattern, error::RqlError> {
    let ast = parse_query(text).map_err(error::RqlError::Parse)?;
    pattern::QueryPattern::resolve(&ast, schema).map_err(error::RqlError::Resolve)
}
