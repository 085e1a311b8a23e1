//! RVL views and active-schema advertisements (paper §2.2).
//!
//! Peer base advertisement in SQPeer relies on RVL view programs: a view
//! clause lists the classes and properties the peer populates, a FROM
//! clause says how they are populated from the peer's base. The populated
//! fragment of the community schema is the peer's **active-schema**, "the
//! subset of a community RDF/S schema(s) for which all classes and
//! properties are (in the materialized scenario) or can be (in the virtual
//! scenario) populated in a peer base".
//!
//! This crate provides:
//!
//! * [`parser`]: the RVL concrete syntax
//!   `VIEW n1:C5(X), n1:prop4(X,Y), n1:C6(Y) FROM {X}n1:prop4{Y}`
//!   (the statement of Figure 1),
//! * [`view::ViewDefinition`]: resolved view programs that can be
//!   **materialized** into a description base or evaluated **virtually**,
//! * [`active::ActiveSchema`]: the schema fragment advertisement used by
//!   the routing algorithm, derivable from a view or from a materialized
//!   base,
//! * [`relational`]: a small in-memory relational substrate with
//!   table-to-RDF mappings and the one [`VirtualBase`], standing in for
//!   the "legacy (XML or relational) databases" peers expose through
//!   virtual views,
//! * [`xml`]: a loader for [`VirtualBase`]: an element tree whose
//!   path-mapped values become the rows of its tables.

pub mod active;
pub mod parser;
pub mod relational;
pub mod view;
pub mod xml;

pub use active::{ActiveProperty, ActiveSchema};
pub use parser::{parse_view, ViewAst, ViewClauseAst};
pub use relational::{ColumnMapping, Database, Table, TableMapping, VirtualBase};
pub use view::{RvlError, ViewClause, ViewDefinition};
pub use xml::{Element, PathMapping, ValueSource};
