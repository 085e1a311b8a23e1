//! The Se-LeNe e-learning scenario the paper motivates SQPeer with: peers
//! of a learning network advertise fragments of a shared e-learning
//! schema, and a hybrid (super-peer) SON routes queries to the peers whose
//! active-schemas subsume them.
//!
//! ```text
//! cargo run --example elearning_hybrid
//! ```

use sqpeer::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The community e-learning schema: learning objects, their authors
    // and the topics they cover, with lecture notes as a refinement.
    let mut b = SchemaBuilder::new("el", "http://selene.example/el#");
    let lo = b.class("LearningObject")?;
    let author = b.class("Author")?;
    let topic = b.class("Topic")?;
    let created_by = b.property("createdBy", lo, Range::Class(author))?;
    let covers = b.property("covers", lo, Range::Class(topic))?;
    let schema = Arc::new(b.finish()?);

    // Three content providers with different fragments: a university
    // repository (authorship), a course portal (topic coverage), and a
    // mirror replicating part of the portal.
    let mut university = LocalPeer::new(Arc::clone(&schema));
    university.insert("http://lo/rdf-intro", created_by, "http://people/alice");
    university.insert("http://lo/rql-tutorial", created_by, "http://people/bob");

    let mut portal = LocalPeer::new(Arc::clone(&schema));
    portal.insert("http://lo/rdf-intro", covers, "http://topics/rdf");
    portal.insert(
        "http://lo/rql-tutorial",
        covers,
        "http://topics/query-languages",
    );

    let mut mirror = LocalPeer::new(Arc::clone(&schema));
    mirror.insert("http://lo/rdf-intro", covers, "http://topics/rdf");

    // A hybrid SON with two super-peers; providers attach round-robin and
    // their advertisements replicate over the backbone.
    let mut builder = HybridBuilder::new(Arc::clone(&schema), 2);
    let learner = builder.add_peer(DescriptionBase::new(Arc::clone(&schema)), 0);
    let p_univ = builder.add_peer(university.base().clone(), 0);
    let p_portal = builder.add_peer(portal.base().clone(), 1);
    let p_mirror = builder.add_peer(mirror.base().clone(), 1);
    let mut net = builder.build();

    // A learner asks: who authored material on which topic?
    let query = net.compile("SELECT A, T FROM {L}createdBy{A}, {L}covers{T}")?;
    let qid = net.query(learner, query);
    net.run();
    let outcome = net.outcome(learner, qid).expect("query completes");
    println!(
        "learner query joined fragments from {:?}, {:?} and {:?}:",
        p_univ, p_portal, p_mirror
    );
    for row in outcome.result.rows.iter() {
        println!("  {row:?}");
    }
    println!(
        "{} row(s), partial={}, {} message(s) on the wire",
        outcome.result.len(),
        outcome.partial,
        net.sim().metrics().total_messages()
    );
    Ok(())
}
