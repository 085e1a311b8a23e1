//! A query pattern's equality and its memoised RQL text.
//!
//! `PartialEq` is the plan cache's full-key check (a fingerprint hit is
//! confirmed with it), so two patterns whose text differs must never
//! compare equal. `QueryPattern::text` is rendered once and kept: every
//! way of building or editing a pattern must leave it reading exactly as
//! a pattern compiled from scratch with the same fields does.

use sqpeer_rdfs::{Range, Schema, SchemaBuilder};
use sqpeer_rql::pattern::ClassPattern;
use sqpeer_rql::{compile, QueryPattern, Term, VarId};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
    let c1 = b.class("C1").unwrap();
    let c2 = b.class("C2").unwrap();
    let c3 = b.class("C3").unwrap();
    let _ = b.subclass("C5", c1).unwrap();
    let _ = b.property("prop1", c1, Range::Class(c2)).unwrap();
    let _ = b.property("prop2", c2, Range::Class(c3)).unwrap();
    Arc::new(b.finish().unwrap())
}

fn q(text: &str) -> QueryPattern {
    compile(text, &schema()).unwrap()
}

const X: VarId = VarId(0);
const Y: VarId = VarId(1);

#[test]
fn patterns_differing_in_one_rendered_field_compare_unequal() {
    let chain = "SELECT X, Y FROM {X}prop1{Y}, {Y}prop2{Z}";
    let pairs = [
        (format!("{chain} LIMIT 5"), format!("{chain} LIMIT 6")),
        (format!("{chain} LIMIT 5"), chain.to_string()),
        (
            format!("{chain} ORDER BY X"),
            format!("{chain} ORDER BY X DESC"),
        ),
        (
            "SELECT X, Y FROM {X}prop1{Y}, {X;C1}".to_string(),
            "SELECT X, Y FROM {X}prop1{Y}, {X;C5}".to_string(),
        ),
    ];
    for (a, b) in &pairs {
        let (a, b) = (q(a), q(b));
        assert_ne!(a.text(), b.text());
        assert_ne!(a, b, "{a} == {b}");
        // What the text says is all equality looks at.
        assert_eq!(a, q(a.text()));
        assert_eq!(b, q(b.text()));
    }
}

/// Applies `edit` to the pattern `before` compiles to, its text already
/// rendered (its columns are built as it compiles): first while another
/// handle shares it, then to that other handle alone. Both results must
/// read as `after` does from scratch, text and columns, and the shared
/// handle must still read as `before` in between.
fn check_edit(before: &str, edit: impl Fn(QueryPattern) -> QueryPattern, after: &str) {
    let (fresh_before, fresh_after) = (q(before), q(after));
    let p = q(before);
    assert_eq!(p.text(), fresh_before.text());
    let other = p.clone();
    let shared_edit = edit(p);
    assert_eq!(shared_edit.text(), fresh_after.text());
    assert_eq!(shared_edit.columns(), fresh_after.columns());
    assert_eq!(shared_edit, fresh_after);
    assert_eq!(other.text(), fresh_before.text());
    assert_eq!(other.columns(), fresh_before.columns());
    let unique_edit = edit(other);
    assert_eq!(unique_edit.text(), fresh_after.text());
    assert_eq!(unique_edit.columns(), fresh_after.columns());
    assert_eq!(unique_edit.to_string(), fresh_after.text());
}

#[test]
fn text_memo_follows_every_builder() {
    let one = "SELECT X, Y FROM {X}prop1{Y}";
    let c5 = schema().class_by_name("C5").unwrap();
    check_edit(
        one,
        |p| {
            p.with_class_patterns(vec![ClassPattern {
                term: Term::Var(X),
                class: c5,
            }])
        },
        "SELECT X, Y FROM {X}prop1{Y}, {X;C5}",
    );
}

#[test]
fn text_memo_of_derived_patterns() {
    let p = q("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z} WHERE Z != &http://r LIMIT 2");
    let _ = p.text();
    let rebuilt = QueryPattern::from_parts(
        Arc::clone(p.schema()),
        p.var_names().to_vec(),
        p.patterns().to_vec(),
        p.projection().to_vec(),
        p.filters().to_vec(),
    );
    let without_top = q("SELECT X FROM {X}prop1{Y}, {Y}prop2{Z} WHERE Z != &http://r");
    assert_eq!(rebuilt.text(), without_top.text());
    assert_eq!(rebuilt, without_top);

    assert_eq!(rebuilt.columns(), without_top.columns());

    let sub = p.subpattern(&[0], vec![X, Y]);
    assert_eq!(sub.text(), q("SELECT X, Y FROM {X}prop1{Y}").text());
    assert_eq!(**sub.columns(), ["X", "Y"]);
    assert_eq!(sub.text(), sub.to_string());
}
