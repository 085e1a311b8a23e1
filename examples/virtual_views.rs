//! Virtual views over a legacy relational database (§2.2): a peer
//! advertises an active-schema derived from SWIM-style mapping rules
//! alone, and populates it on demand when a query actually arrives.
//!
//! ```text
//! cargo run --example virtual_views
//! ```

use sqpeer::prelude::*;
use sqpeer::rvl::{ColumnMapping, Database, Table, TableMapping};
use sqpeer_testkit::fixtures::fig1_schema;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = fig1_schema();
    let prop1 = schema.property_by_name("prop1").expect("prop1");

    // The legacy store: a plain relational table of links.
    let mut table = Table::new("links", &["src", "dst"]);
    table.insert(&["a", "b"]);
    table.insert(&["c", "d"]);
    table.insert(&["e", "f"]);
    let mut db = Database::new();
    db.add_table(table);

    // The mapping rule: rows of `links` populate prop1 with URI-prefixed
    // subjects and objects. Nothing is materialised yet.
    let vb = VirtualBase::new(
        Arc::clone(&schema),
        db,
        vec![TableMapping {
            table: "links".into(),
            subject_column: "src".into(),
            subject_prefix: "http://legacy/".into(),
            object_column: "dst".into(),
            object: ColumnMapping::Resource {
                prefix: "http://legacy/".into(),
            },
            property: prop1,
        }],
    );
    println!(
        "virtual peer advertises {} propert(ies) without reading any data",
        vb.active_schema().active_properties().len()
    );

    // Drop it into a hybrid SON next to an ordinary querying peer.
    let mut builder = HybridBuilder::new(Arc::clone(&schema), 1);
    let origin = builder.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let legacy = builder.add_virtual_peer(vb, 0);
    let mut net = builder.build();

    let query = net.compile("SELECT X, Y FROM {X}prop1{Y}")?;
    let qid = net.query(origin, query);
    net.run();
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "query routed to the virtual peer {legacy:?}: {} row(s), partial={}",
        outcome.result.len(),
        outcome.partial
    );
    for row in outcome.result.rows.iter() {
        println!("  {row:?}");
    }
    Ok(())
}
