//! Recursive-descent parser for the RQL conjunctive fragment.

use crate::ast::{
    CmpOp, Condition, LiteralSpec, NodeSpec, Operand, OrderBy, PathExpr, Projection, QueryAst,
};
use crate::error::ParseError;
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses an RQL query text into an AST.
pub fn parse_query(src: &str) -> Result<QueryAst, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Token-stream cursor shared with the RVL parser (`sqpeer-rvl`).
pub struct Parser {
    pub(crate) tokens: Vec<Token>,
    pub(crate) pos: usize,
}

impl Parser {
    /// Creates a parser over pre-lexed tokens (used by the RVL parser).
    pub fn from_tokens(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    /// The current token.
    pub fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// Consumes and returns the current token.
    pub fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token if it matches `kind`.
    pub fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Errors unless the current token matches `kind`, consuming it.
    pub fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token, ParseError> {
        if &self.peek().kind == kind {
            Ok(self.bump())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Errors unless the input is exhausted.
    pub fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.unexpected("end of query"))
        }
    }

    /// Builds an "expected X" error at the current position.
    pub fn unexpected(&self, what: &str) -> ParseError {
        ParseError::new(
            self.peek().offset,
            format!("expected {what}, found {:?}", self.peek().kind),
        )
    }

    /// Parses a bare name (variable, class, property or prefix); `what`
    /// names it in the error.
    pub fn name(&mut self, what: &str) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Name(n) => {
                let n = n.clone();
                self.bump();
                Ok(n)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn query(&mut self) -> Result<QueryAst, ParseError> {
        self.expect(&TokenKind::Select, "SELECT")?;
        let projection = self.projection()?;
        self.expect(&TokenKind::From, "FROM")?;
        let (paths, class_exprs) = self.from_items()?;
        let filters = if self.eat(&TokenKind::Where) {
            self.conditions()?
        } else {
            Vec::new()
        };
        let order_by = self.order_by()?;
        let limit = self.limit()?;
        let namespaces = self.using_namespaces()?;
        Ok(QueryAst {
            projection,
            paths,
            class_exprs,
            filters,
            namespaces,
            order_by,
            limit,
        })
    }

    /// Parses FROM items: path expressions `{s}prop{o}` and standalone
    /// class-membership expressions `{X;C}` (distinguished by whether a
    /// property name follows the closing brace). Shared with the RVL
    /// parser.
    pub fn from_items(&mut self) -> Result<(Vec<PathExpr>, Vec<NodeSpec>), ParseError> {
        let mut paths = Vec::new();
        let mut classes = Vec::new();
        loop {
            let spec = self.node_spec()?;
            if matches!(self.peek().kind, TokenKind::Name(_)) {
                let property = self.name("property name")?;
                let object = self.node_spec()?;
                paths.push(PathExpr {
                    subject: spec,
                    property,
                    object,
                });
            } else {
                classes.push(spec);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok((paths, classes))
    }

    fn order_by(&mut self) -> Result<Option<OrderBy>, ParseError> {
        if !self.eat(&TokenKind::Order) {
            return Ok(None);
        }
        self.expect(&TokenKind::By, "BY")?;
        let var = self.name("ordering variable")?;
        let ascending = if self.eat(&TokenKind::Desc) {
            false
        } else {
            self.eat(&TokenKind::Asc);
            true
        };
        Ok(Some(OrderBy { var, ascending }))
    }

    fn limit(&mut self) -> Result<Option<usize>, ParseError> {
        if !self.eat(&TokenKind::Limit) {
            return Ok(None);
        }
        match self.peek().kind.clone() {
            TokenKind::Integer(n) if n >= 0 => {
                self.bump();
                Ok(Some(n as usize))
            }
            _ => Err(self.unexpected("a non-negative LIMIT count")),
        }
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        if self.eat(&TokenKind::Star) {
            return Ok(Projection::Star);
        }
        let mut vars = vec![self.name("variable name")?];
        while self.eat(&TokenKind::Comma) {
            vars.push(self.name("variable name")?);
        }
        Ok(Projection::Vars(vars))
    }

    fn node_spec(&mut self) -> Result<NodeSpec, ParseError> {
        self.expect(&TokenKind::LBrace, "`{`")?;
        let spec = match self.peek().kind.clone() {
            TokenKind::Name(name) => {
                self.bump();
                let class = if self.eat(&TokenKind::Semicolon) {
                    Some(self.name("class name")?)
                } else {
                    None
                };
                NodeSpec::Var { name, class }
            }
            TokenKind::ResourceRef(uri) => {
                self.bump();
                NodeSpec::Resource(uri)
            }
            TokenKind::String(s) => {
                self.bump();
                NodeSpec::Literal(LiteralSpec::String(s))
            }
            TokenKind::Integer(i) => {
                self.bump();
                NodeSpec::Literal(LiteralSpec::Integer(i))
            }
            TokenKind::Float(x) => {
                self.bump();
                NodeSpec::Literal(LiteralSpec::Float(x))
            }
            _ => return Err(self.unexpected("variable, resource or literal")),
        };
        self.expect(&TokenKind::RBrace, "`}`")?;
        Ok(spec)
    }

    /// Parses WHERE conditions `operand op operand (AND …)*`. Shared with
    /// the RVL parser.
    pub fn conditions(&mut self) -> Result<Vec<Condition>, ParseError> {
        let mut conds = vec![self.condition()?];
        while self.eat(&TokenKind::And) {
            conds.push(self.condition()?);
        }
        Ok(conds)
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        let left = self.operand()?;
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Err(self.unexpected("comparison operator")),
        };
        self.bump();
        let right = self.operand()?;
        Ok(Condition { left, op, right })
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        let op = match self.peek().kind.clone() {
            TokenKind::Name(n) if n == "true" => Operand::Literal(LiteralSpec::Boolean(true)),
            TokenKind::Name(n) if n == "false" => Operand::Literal(LiteralSpec::Boolean(false)),
            TokenKind::Name(n) => Operand::Var(n),
            TokenKind::String(s) => Operand::Literal(LiteralSpec::String(s)),
            TokenKind::Integer(i) => Operand::Literal(LiteralSpec::Integer(i)),
            TokenKind::Float(x) => Operand::Literal(LiteralSpec::Float(x)),
            TokenKind::ResourceRef(u) => Operand::Resource(u),
            _ => return Err(self.unexpected("operand")),
        };
        self.bump();
        Ok(op)
    }

    /// Parses trailing `USING NAMESPACE p = &uri, q = &uri` declarations.
    pub fn using_namespaces(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        let mut out = Vec::new();
        if !self.eat(&TokenKind::Using) {
            return Ok(out);
        }
        self.expect(&TokenKind::Namespace, "NAMESPACE")?;
        loop {
            let prefix = self.name("namespace prefix")?;
            self.expect(&TokenKind::Eq, "`=`")?;
            let uri = match self.peek().kind.clone() {
                TokenKind::ResourceRef(u) => {
                    self.bump();
                    u
                }
                _ => return Err(self.unexpected("namespace URI (`&http://...`)")),
            };
            out.push((prefix, uri));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_query() {
        // The query Q of Figure 1 in the paper.
        let q = parse_query(
            "SELECT X, Y FROM {X}n1:prop1{Y}, {Y}n1:prop2{Z} \
             USING NAMESPACE n1 = &http://example.org/n1#",
        )
        .unwrap();
        assert_eq!(q.projection, Projection::Vars(vec!["X".into(), "Y".into()]));
        assert_eq!(q.paths.len(), 2);
        assert_eq!(q.paths[0].property, "n1:prop1");
        assert_eq!(
            q.paths[0].subject,
            NodeSpec::Var {
                name: "X".into(),
                class: None
            }
        );
        assert_eq!(
            q.namespaces,
            vec![("n1".into(), "http://example.org/n1#".into())]
        );
    }

    #[test]
    fn parses_class_constraints() {
        let q = parse_query("SELECT X FROM {X;n1:C1}n1:prop1{Y;n1:C2}").unwrap();
        assert_eq!(
            q.paths[0].subject,
            NodeSpec::Var {
                name: "X".into(),
                class: Some("n1:C1".into())
            }
        );
        assert_eq!(
            q.paths[0].object,
            NodeSpec::Var {
                name: "Y".into(),
                class: Some("n1:C2".into())
            }
        );
    }

    #[test]
    fn parses_where_clause() {
        let q = parse_query("SELECT X FROM {X}p{Z} WHERE Z = \"v\" AND X != &http://r").unwrap();
        assert_eq!(q.filters.len(), 2);
        assert_eq!(q.filters[0].op, CmpOp::Eq);
        assert_eq!(
            q.filters[0].right,
            Operand::Literal(LiteralSpec::String("v".into()))
        );
        assert_eq!(q.filters[1].right, Operand::Resource("http://r".into()));
    }

    #[test]
    fn parses_star_projection() {
        let q = parse_query("SELECT * FROM {X}p{Y}").unwrap();
        assert_eq!(q.projection, Projection::Star);
    }

    #[test]
    fn parses_constant_nodes() {
        let q = parse_query("SELECT X FROM {X}p{\"lit\"}, {&http://r}q{X}").unwrap();
        assert_eq!(
            q.paths[0].object,
            NodeSpec::Literal(LiteralSpec::String("lit".into()))
        );
        assert_eq!(q.paths[1].subject, NodeSpec::Resource("http://r".into()));
    }

    #[test]
    fn parses_numeric_filters() {
        let q = parse_query("SELECT X FROM {X}p{Z} WHERE Z >= 10 AND Z < 3.5").unwrap();
        assert_eq!(q.filters[0].op, CmpOp::Ge);
        assert_eq!(
            q.filters[1].right,
            Operand::Literal(LiteralSpec::Float(3.5))
        );
    }

    #[test]
    fn multiple_namespaces() {
        let q = parse_query("SELECT X FROM {X}p{Y} USING NAMESPACE a = &u1, b = &u2").unwrap();
        assert_eq!(q.namespaces.len(), 2);
    }

    #[test]
    fn round_trip_display_reparses() {
        let src = "SELECT X, Y FROM {X;n1:C1}n1:prop1{Y}, {Y}n1:prop2{Z} WHERE Z = \"v\"";
        let q1 = parse_query(src).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn parses_order_by_and_limit() {
        let q = parse_query("SELECT X FROM {X}p{A} ORDER BY A DESC LIMIT 10").unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy {
                var: "A".into(),
                ascending: false
            })
        );
        assert_eq!(q.limit, Some(10));
        let q = parse_query("SELECT X FROM {X}p{A} ORDER BY A ASC").unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy {
                var: "A".into(),
                ascending: true
            })
        );
        assert_eq!(q.limit, None);
        let q = parse_query("SELECT X FROM {X}p{A} LIMIT 3").unwrap();
        assert_eq!(q.order_by, None);
        assert_eq!(q.limit, Some(3));
        assert!(parse_query("SELECT X FROM {X}p{A} ORDER A").is_err());
        assert!(parse_query("SELECT X FROM {X}p{A} LIMIT -1").is_err());
        assert!(parse_query("SELECT X FROM {X}p{A} LIMIT x").is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("").is_err());
        assert!(parse_query("FROM {X}p{Y}").is_err());
        assert!(parse_query("SELECT X").is_err());
        assert!(parse_query("SELECT X FROM {X}p").is_err());
        assert!(parse_query("SELECT X FROM {X}p{Y} WHERE").is_err());
        assert!(parse_query("SELECT X FROM {X}p{Y} trailing").is_err());
        assert!(parse_query("SELECT X FROM {}p{Y}").is_err());
        assert!(parse_query("SELECT X FROM {X}p{Y} USING NAMESPACE n").is_err());
    }

    #[test]
    fn literal_subject_is_parsed_not_rejected_here() {
        // Rejection of literal subjects is a semantic check (pattern.rs),
        // the parser accepts the shape.
        let q = parse_query("SELECT X FROM {\"s\"}p{X}").unwrap();
        assert!(matches!(q.paths[0].subject, NodeSpec::Literal(_)));
    }
}
