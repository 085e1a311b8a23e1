//! Errors produced while lexing, parsing and resolving RQL queries.

use std::fmt;

/// A lexical or syntactic error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the query text where the error occurred.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at `offset`.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A semantic-analysis error raised while resolving an AST against a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// A property name in a path expression is not defined in the schema.
    UnknownProperty(String),
    /// A class name in a node specification is not defined in the schema.
    UnknownClass(String),
    /// A projected or filtered variable never appears in a path expression.
    UnboundVariable(String),
    /// A node-spec class can never intersect the property's domain/range
    /// (the pattern is unsatisfiable).
    IncompatibleClass {
        /// The user-specified class.
        class: String,
        /// The property whose end-point it conflicts with.
        property: String,
    },
    /// A literal constant or literal-typed variable appears in subject
    /// position.
    LiteralSubject,
    /// The query has no path expressions (the conjunctive fragment requires
    /// at least one).
    EmptyFrom,
    /// The FROM clause has over [`MAX_PATTERNS`](crate::MAX_PATTERNS) path expressions.
    TooManyPatterns(usize),
    /// The FROM clause is not connected: some path expressions share no
    /// variable with the rest, which would require a cartesian product.
    DisconnectedPattern,
    /// A comparison mixes operand kinds that can never compare (e.g. a
    /// resource with `<`).
    InvalidComparison(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownProperty(p) => write!(f, "unknown property `{p}`"),
            ResolveError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            ResolveError::UnboundVariable(v) => {
                write!(f, "variable `{v}` does not appear in the FROM clause")
            }
            ResolveError::IncompatibleClass { class, property } => write!(
                f,
                "class `{class}` is incompatible with the end-point of property `{property}`"
            ),
            ResolveError::LiteralSubject => write!(f, "literals cannot appear in subject position"),
            ResolveError::EmptyFrom => write!(f, "FROM clause has no path expressions"),
            ResolveError::TooManyPatterns(n) => write!(f, "{n} path expressions, over 64"),
            ResolveError::DisconnectedPattern => {
                write!(f, "FROM clause is not connected by shared variables")
            }
            ResolveError::InvalidComparison(m) => write!(f, "invalid comparison: {m}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Either phase of query compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RqlError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Semantic analysis failed.
    Resolve(ResolveError),
}

impl fmt::Display for RqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RqlError::Parse(e) => write!(f, "{e}"),
            RqlError::Resolve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RqlError {}
