//! §3.1 cross-schema mediation: a query posed in a *global* schema is
//! answered by a peer whose base uses a different *local* schema, through
//! an articulation (class/property mappings) installed at a super-peer.
//!
//! ```text
//! cargo run --example mediation
//! ```

use sqpeer::exec::node_of;
use sqpeer::prelude::*;
use sqpeer::subsume::Articulation;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The global (query) schema the community agrees on.
    let mut gb = SchemaBuilder::new("g", "http://global#");
    let doc = gb.class("Document")?;
    let person = gb.class("Person")?;
    let author = gb.property("author", doc, Range::Class(person))?;
    let global = Arc::new(gb.finish()?);

    // A legacy community's local schema, structurally parallel.
    let mut lb = SchemaBuilder::new("l", "http://local#");
    let book = lb.class("Book")?;
    let writer = lb.class("Writer")?;
    let written_by = lb.property("writtenBy", book, Range::Class(writer))?;
    let local = Arc::new(lb.finish()?);

    // The data lives in the local schema only.
    let mut local_base = DescriptionBase::new(Arc::clone(&local));
    local_base.insert_described(Triple::new(
        Resource::new("http://lib/moby-dick"),
        written_by,
        Node::Resource(Resource::new("http://lib/melville")),
    ));

    let mut builder = HybridBuilder::new(Arc::clone(&global), 1);
    let origin = builder.add_peer(DescriptionBase::new(Arc::clone(&global)), 0);
    let holder = builder.add_peer(local_base, 0);
    let mut net = builder.build();

    // The articulation: Document↦Book, Person↦Writer, author↦writtenBy.
    let articulation = Articulation::builder(Arc::clone(&global), Arc::clone(&local))
        .map_class(doc, book)
        .map_class(person, writer)
        .map_property(author, written_by)
        .finish()?;
    let sp = net.super_peers()[0];
    net.sim_mut()
        .node_mut(node_of(sp))
        .expect("super-peer exists")
        .son
        .articulations
        .push(articulation);

    // Ask in the global vocabulary; the super-peer reformulates for the
    // local-schema peer and maps the answer back.
    let query = net.compile("SELECT D, P FROM {D}g:author{P}")?;
    let qid = net.query(origin, query);
    net.run();
    let outcome = net.outcome(origin, qid).expect("query completes");
    println!(
        "global-schema query answered by local-schema peer {holder:?}: \
         {} row(s), columns {:?}, partial={}",
        outcome.result.len(),
        outcome.result.columns,
        outcome.partial
    );
    for row in outcome.result.rows.iter() {
        println!("  {row:?}");
    }
    Ok(())
}
