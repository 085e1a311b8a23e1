//! Parser for the RVL view fragment.
//!
//! Grammar (keywords case-insensitive, reusing the RQL lexer):
//!
//! ```text
//! view      := VIEW clause (',' clause)*
//!              FROM pathexpr (',' pathexpr)*
//!              (WHERE conditions)?          -- RQL's condition grammar
//!              (USING NAMESPACE decls)?
//! clause    := name '(' var ')'            -- class population
//!            | name '(' var ',' var ')'    -- property population
//! ```

use sqpeer_rql::ast::{Condition, PathExpr};
use sqpeer_rql::lexer::{Lexer, TokenKind};
use sqpeer_rql::parser::Parser;
use sqpeer_rql::ParseError;

/// A parsed (unresolved) RVL view program.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewAst {
    /// The view clauses listing populated classes/properties.
    pub clauses: Vec<ViewClauseAst>,
    /// The FROM clause path expressions.
    pub paths: Vec<PathExpr>,
    /// Standalone class-membership expressions in FROM (`{X;C}`), letting
    /// a view populate one class from another class's extent.
    pub class_exprs: Vec<sqpeer_rql::ast::NodeSpec>,
    /// Optional WHERE filters.
    pub filters: Vec<Condition>,
    /// Namespace declarations.
    pub namespaces: Vec<(String, String)>,
}

/// One view clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewClauseAst {
    /// `C5(X)` — populate class `C5` with bindings of `X`.
    Class {
        /// The class name.
        name: String,
        /// The populating variable.
        var: String,
    },
    /// `prop4(X, Y)` — populate property `prop4` with `(X, Y)` bindings.
    Property {
        /// The property name.
        name: String,
        /// Subject variable.
        subject: String,
        /// Object variable.
        object: String,
    },
}

/// Parses an RVL view program.
pub fn parse_view(src: &str) -> Result<ViewAst, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser::from_tokens(tokens);
    // Optional leading `CREATE`.
    p.eat(&TokenKind::Create);
    p.expect(&TokenKind::View, "VIEW")?;

    let mut clauses = vec![view_clause(&mut p)?];
    while p.eat(&TokenKind::Comma) {
        clauses.push(view_clause(&mut p)?);
    }

    p.expect(&TokenKind::From, "FROM")?;
    let (paths, class_exprs) = p.from_items()?;
    let filters = if p.eat(&TokenKind::Where) {
        p.conditions()?
    } else {
        Vec::new()
    };
    let namespaces = p.using_namespaces()?;
    p.expect_eof()?;
    Ok(ViewAst {
        clauses,
        paths,
        class_exprs,
        filters,
        namespaces,
    })
}

fn view_clause(p: &mut Parser) -> Result<ViewClauseAst, ParseError> {
    let name = p.name("class or property name")?;
    p.expect(&TokenKind::LParen, "`(`")?;
    let first = p.name("variable name")?;
    let clause = if p.eat(&TokenKind::Comma) {
        let second = p.name("variable name")?;
        ViewClauseAst::Property {
            name,
            subject: first,
            object: second,
        }
    } else {
        ViewClauseAst::Class { name, var: first }
    };
    p.expect(&TokenKind::RParen, "`)`")?;
    Ok(clause)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_view() {
        // The RVL statement of Figure 1: populate C5, prop4 and C6.
        let v = parse_view(
            "VIEW n1:C5(X), n1:prop4(X,Y), n1:C6(Y) FROM {X}n1:prop4{Y} \
             USING NAMESPACE n1 = &http://example.org/n1#",
        )
        .unwrap();
        assert_eq!(v.clauses.len(), 3);
        assert_eq!(
            v.clauses[0],
            ViewClauseAst::Class {
                name: "n1:C5".into(),
                var: "X".into()
            }
        );
        assert_eq!(
            v.clauses[1],
            ViewClauseAst::Property {
                name: "n1:prop4".into(),
                subject: "X".into(),
                object: "Y".into()
            }
        );
        assert_eq!(v.paths.len(), 1);
        assert_eq!(v.namespaces.len(), 1);
    }

    #[test]
    fn optional_create_keyword() {
        let v = parse_view("CREATE VIEW C1(X) FROM {X}p{Y}").unwrap();
        assert_eq!(v.clauses.len(), 1);
    }

    #[test]
    fn where_clause() {
        let v = parse_view("VIEW C1(X) FROM {X}p{Z} WHERE Z >= 10 AND Z < 20").unwrap();
        assert_eq!(v.filters.len(), 2);
    }

    #[test]
    fn where_accepts_every_rql_operand_and_comparison() {
        use sqpeer_rql::ast::{CmpOp, LiteralSpec, Operand};
        use CmpOp::*;
        let v = parse_view(
            "VIEW C1(X) FROM {X}p{Z} WHERE Z = \"s\" AND Z != &http://r AND Z < true \
             AND Z <= false AND Z > 1.5 AND 7 >= Z",
        )
        .unwrap();
        let ops: Vec<CmpOp> = v.filters.iter().map(|c| c.op).collect();
        assert_eq!(ops, [Eq, Ne, Lt, Le, Gt, Ge]);
        let rights: Vec<&Operand> = v.filters.iter().map(|c| &c.right).collect();
        assert_eq!(
            rights,
            [
                &Operand::Literal(LiteralSpec::String("s".into())),
                &Operand::Resource("http://r".into()),
                &Operand::Literal(LiteralSpec::Boolean(true)),
                &Operand::Literal(LiteralSpec::Boolean(false)),
                &Operand::Literal(LiteralSpec::Float(1.5)),
                &Operand::Var("Z".into()),
            ]
        );
        assert_eq!(v.filters[5].left, Operand::Literal(LiteralSpec::Integer(7)));
        assert!(parse_view("VIEW C1(X) FROM {X}p{Z} WHERE Z ~ 1").is_err());
        assert!(parse_view("VIEW C1(X) FROM {X}p{Z} WHERE Z = ,").is_err());
    }

    #[test]
    fn multiple_paths() {
        let v = parse_view("VIEW p(X,Y), q(Y,Z) FROM {X}p{Y}, {Y}q{Z}").unwrap();
        assert_eq!(v.paths.len(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_view("").is_err());
        assert!(parse_view("VIEW FROM {X}p{Y}").is_err());
        assert!(parse_view("VIEW C1() FROM {X}p{Y}").is_err());
        assert!(parse_view("VIEW C1(X,Y,Z) FROM {X}p{Y}").is_err());
        assert!(parse_view("VIEW C1(X)").is_err());
        assert!(parse_view("VIEW C1(X) FROM {X}p{Y} garbage").is_err());
    }
}
