//! [`Wire`] encodings for the middleware's payload types.
//!
//! Most of them are table rows (`wire_struct!` and `wire_enum!` in
//! [`codec`](crate::codec)): fields in wire order, unions behind explicit
//! tag numbers, one row generating both directions. The impls below are
//! written by hand, each for a reason a row cannot state:
//!
//! * **Queries travel as text.** A [`QueryPattern`] is schema-resolved and
//!   interned; its canonical form on the wire is the schema fingerprint
//!   plus its RQL text (`QueryPattern::text`). Decode compiles the text
//!   through the [`SchemaRegistry`](crate::SchemaRegistry), which hands
//!   out the pattern a text it has seen compiled to. This keeps the wire
//!   format stable across internal pattern-representation changes and
//!   matches the paper's model of peers exchanging (RQL) query fragments.
//! * **Annotations ride on their query.** An [`AnnotatedQuery`] ships one
//!   annotation list per path pattern of its query and no count of lists:
//!   the query implies it.
//! * **Active-schemas are bound to a schema.** An [`ActiveSchema`] ships
//!   its schema's fingerprint, and decode refuses a class or property id
//!   the schema does not have — a populated class, a property, or an
//!   arc's domain or range.
//! * **Statistics travel closed.** A [`BaseStatistics`] snapshot ships both
//!   its direct and subsumption-closed vectors verbatim, so the receiving
//!   side needs no schema to reconstruct the closure.
//! * **Answers travel as a dictionary plus ids.** A [`ResultSet`] ships
//!   each node its rows use once and every cell as a varint id, as it is
//!   held in memory: decode allocates once per distinct value, not once
//!   per cell, and hashes nothing. `row_count` refuses a row count the
//!   bytes left cannot hold.
//! * **Covers are a list.** A [`Subquery`]'s covered-pattern bits go as
//!   the ascending list of their indices; decode refuses one past 63.
//! * **Plans nest to a cap.** A [`PlanNode`] decode counts its depth
//!   against [`MAX_DEPTH`](crate::MAX_DEPTH).
//! * **A resource is its URI.** [`Resource`]'s field is private: it goes
//!   as `uri()` and comes back through `Resource::new`.

use crate::codec::{seq, wire_enum, wire_struct, Reader, Wire, WireError, Writer};
use sqpeer_exec::{PeerChannel, QueryId, TraceCtx};
use sqpeer_net::{ChannelId, ChannelState};
use sqpeer_plan::{PlanNode, Site, Subquery};
use sqpeer_rdfs::{ClassId, Literal, Node, PropertyId, Resource};
use sqpeer_routing::{Advertisement, AnnotatedQuery, PeerAnnotation, PeerId};
use sqpeer_rql::{Endpoint, PathPattern, QueryPattern, ResultSet, Term, VarId};
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use sqpeer_subsume::PatternMatch;

wire_struct! {
    PeerId(u32);
    QueryId(u64);
    ChannelId(u64);
    ClassId(u32);
    PropertyId(u32);
    VarId(u16);
    PeerChannel { id, root, dest, state };
    TraceCtx { origin, parent_start_us };
    Endpoint { term, class };
    PathPattern { subject, property, object };
    PeerAnnotation { peer, kind, pattern };
    ActiveProperty { property, domain, range };
    PropertyStats { triples, distinct_subjects, distinct_objects };
    ClassStats { instances };
    Advertisement { peer, active, stats };
}

wire_enum! {
    ChannelState, byte { 0 => Open, 1 => Failed, 2 => Closed };
    Literal, byte { 0 => String(s), 1 => Integer(i), 2 => Float(f), 3 => Boolean(b) };
    Node, byte { 0 => Resource(res), 1 => Literal(lit) };
    Term, byte { 0 => Var(v), 1 => Resource(res), 2 => Literal(lit) };
    PatternMatch, byte {
        0 => Equivalent,
        1 => SpecializesQuery,
        2 => GeneralizesQuery,
        3 => Overlaps,
    };
    Site, byte { 0 => Peer(p), 1 => Hole };
}

impl Wire for Resource {
    fn encode(&self, w: &mut Writer) {
        w.string(self.uri());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Resource::new(r.str()?))
    }
}

impl Wire for ResultSet {
    /// Columns, the dictionary entries the rows use in the order they are
    /// first used, the row count, then every cell's id into those entries:
    /// unused entries and the dictionary's order never reach the wire, so
    /// decoding and encoding again gives back the same bytes.
    fn encode(&self, w: &mut Writer) {
        seq(w, &self.columns);
        let (dict, ids) = (self.rows.dict(), self.rows.ids());
        // A dictionary every entry of which is used, first uses in order
        // (what the engine, a decode and a union produce), goes as it is.
        let mut next = 0;
        let in_order = ids.iter().all(|&id| {
            next += u32::from(id == next);
            id < next
        });
        if in_order && next as usize == dict.len() {
            w.usizev(dict.len());
            dict.iter().for_each(|node| node.encode(w));
            w.usizev(self.len());
            ids.iter().for_each(|&id| w.u32v(id));
            return;
        }
        let (mut wire_id, mut used) = (vec![u32::MAX; dict.len()], Vec::new());
        for &id in ids {
            if wire_id[id as usize] == u32::MAX {
                wire_id[id as usize] = used.len() as u32;
                used.push(id);
            }
        }
        w.usizev(used.len());
        used.iter().for_each(|&id| dict[id as usize].encode(w));
        w.usizev(self.len());
        ids.iter().for_each(|&id| w.u32v(wire_id[id as usize]));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (columns, dict) = (Vec::<String>::decode(r)?, Vec::<Node>::decode(r)?);
        let len = row_count(r, columns.len())?;
        let ids = (0..len * columns.len()).map(|_| r.u32v());
        let ids = ids.collect::<Result<Vec<u32>, _>>()?;
        ResultSet::from_dict(columns, dict, ids, len).map_err(WireError::Mismatch)
    }
}

/// A result set's row count, refused before anything is allocated for it
/// when its cells could not fit in the bytes left (an id takes at least
/// one) or when, over zero columns, it claims more than the one row a set
/// of empty tuples holds.
pub(crate) fn row_count(r: &mut Reader<'_>, width: usize) -> Result<usize, WireError> {
    let claimed = r.u64v()?;
    let available = r.remaining();
    match claimed.checked_mul(width as u64) {
        _ if width == 0 && claimed > 1 => Err(WireError::Mismatch("zero columns, several rows")),
        Some(cells) if cells <= available as u64 => Ok(claimed as usize),
        _ => Err(WireError::Overlong { claimed, available }),
    }
}

impl Wire for QueryPattern {
    fn encode(&self, w: &mut Writer) {
        w.u64v(self.schema().fingerprint());
        w.string(self.text());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let fp = r.u64v()?;
        let text = r.str()?;
        r.schemas().compile(fp, text)
    }
}

impl Wire for Subquery {
    fn encode(&self, w: &mut Writer) {
        w.usizev(self.covers.count_ones() as usize);
        self.covered().for_each(|i| w.usizev(i));
        self.query.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (mut covers, beyond) = (0u64, WireError::Mismatch("covered pattern beyond 63"));
        for i in Vec::<u32>::decode(r)? {
            covers |= 1u64.checked_shl(i).ok_or(beyond.clone())?;
        }
        let query = QueryPattern::decode(r)?;
        Ok(Subquery { covers, query })
    }
}

impl Wire for AnnotatedQuery {
    fn encode(&self, w: &mut Writer) {
        let query = self.query();
        query.encode(w);
        // One annotation list per path pattern; the count is implied by
        // the query, which `AnnotatedQuery::new` asserts against.
        (0..query.patterns().len()).for_each(|i| seq(w, self.peers_for(i)));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let query = QueryPattern::decode(r)?;
        let annotations = (0..query.patterns().len()).map(|_| Vec::decode(r));
        let annotations = annotations.collect::<Result<_, _>>()?;
        Ok(AnnotatedQuery::new(query, annotations))
    }
}

impl Wire for ActiveSchema {
    fn encode(&self, w: &mut Writer) {
        w.u64v(self.schema().fingerprint());
        self.classes().collect::<Vec<_>>().encode(w);
        seq(w, self.active_properties());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let fp = r.u64v()?;
        let schema = r.schemas().resolve(fp)?.clone();
        let beyond = |c: ClassId| c.0 as usize >= schema.class_count();
        let classes = Vec::<ClassId>::decode(r)?;
        if classes.iter().any(|&c| beyond(c)) {
            return Err(WireError::Mismatch("class id beyond schema"));
        }
        let properties = Vec::<ActiveProperty>::decode(r)?;
        if properties
            .iter()
            .any(|p| p.property.0 as usize >= schema.property_count())
        {
            return Err(WireError::Mismatch("property id beyond schema"));
        }
        if properties
            .iter()
            .any(|p| beyond(p.domain) || p.range.is_some_and(beyond))
        {
            return Err(WireError::Mismatch("class id beyond schema"));
        }
        Ok(ActiveSchema::new(schema, classes, properties))
    }
}

impl Wire for BaseStatistics {
    fn encode(&self, w: &mut Writer) {
        let (props, classes, props_closed, classes_closed) = self.raw_parts();
        seq(w, props);
        seq(w, classes);
        seq(w, props_closed);
        seq(w, classes_closed);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BaseStatistics::from_raw_parts(
            Vec::decode(r)?,
            Vec::decode(r)?,
            Vec::decode(r)?,
            Vec::decode(r)?,
        ))
    }
}

impl Wire for PlanNode {
    fn encode(&self, w: &mut Writer) {
        match self {
            PlanNode::Fetch { subquery, site } => {
                w.byte(0);
                subquery.encode(w);
                site.encode(w);
            }
            PlanNode::Union(inputs) => {
                w.byte(1);
                inputs.encode(w);
            }
            PlanNode::Join { inputs, site } => {
                w.byte(2);
                inputs.encode(w);
                site.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.enter()?;
        let node = match r.byte()? {
            0 => PlanNode::Fetch {
                subquery: Subquery::decode(r)?,
                site: Site::decode(r)?,
            },
            1 => PlanNode::Union(Vec::<PlanNode>::decode(r)?),
            2 => PlanNode::Join {
                inputs: Vec::<PlanNode>::decode(r)?,
                site: Option::<PeerId>::decode(r)?,
            },
            tag => {
                r.leave();
                return Err(WireError::BadTag {
                    what: "PlanNode",
                    tag: tag as u64,
                });
            }
        };
        r.leave();
        Ok(node)
    }
}
