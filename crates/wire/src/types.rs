//! [`Wire`] encodings for the middleware's payload types.
//!
//! Most types encode structurally (field by field, unions tagged in
//! declaration order). Three deliberate exceptions:
//!
//! * **Queries travel as text.** A [`QueryPattern`] is schema-resolved and
//!   interned; its canonical form on the wire is the schema fingerprint
//!   plus its RQL text (`QueryPattern::text`), recompiled at decode. This keeps the
//!   wire format stable across internal pattern-representation changes and
//!   matches the paper's model of peers exchanging (RQL) query fragments.
//! * **Statistics travel closed.** A [`BaseStatistics`] snapshot ships both
//!   its direct and subsumption-closed vectors verbatim, so the receiving
//!   side needs no schema to reconstruct the closure.
//! * **Answers travel as a dictionary plus ids.** A [`ResultSet`] ships
//!   each node its rows use once and every cell as a varint id, as it is
//!   held in memory: decode allocates once per distinct value, not once
//!   per cell, and hashes nothing.

use crate::codec::{Reader, Wire, WireError, Writer};
use crate::fingerprint::schema_fingerprint;
use sqpeer_exec::{PeerChannel, QueryId, TraceCtx};
use sqpeer_net::{Channel, ChannelId, ChannelState};
use sqpeer_plan::{PlanNode, Site, Subquery};
use sqpeer_rdfs::{ClassId, Literal, Node, PropertyId, Resource};
use sqpeer_routing::{Advertisement, AnnotatedQuery, PeerAnnotation, PeerId};
use sqpeer_rql::{Endpoint, PathPattern, QueryPattern, ResultSet, Term, VarId};
use sqpeer_rvl::{ActiveProperty, ActiveSchema};
use sqpeer_store::{BaseStatistics, ClassStats, PropertyStats};
use sqpeer_subsume::PatternMatch;

impl Wire for PeerId {
    fn encode(&self, w: &mut Writer) {
        w.u32v(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PeerId(r.u32v()?))
    }
}

impl Wire for QueryId {
    fn encode(&self, w: &mut Writer) {
        w.u64v(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QueryId(r.u64v()?))
    }
}

impl Wire for ChannelId {
    fn encode(&self, w: &mut Writer) {
        w.u64v(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ChannelId(r.u64v()?))
    }
}

impl Wire for ChannelState {
    fn encode(&self, w: &mut Writer) {
        w.byte(match self {
            ChannelState::Open => 0,
            ChannelState::Failed => 1,
            ChannelState::Closed => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(ChannelState::Open),
            1 => Ok(ChannelState::Failed),
            2 => Ok(ChannelState::Closed),
            tag => Err(WireError::BadTag {
                what: "ChannelState",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for PeerChannel {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.root.encode(w);
        self.dest.encode(w);
        self.state.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Channel {
            id: ChannelId::decode(r)?,
            root: PeerId::decode(r)?,
            dest: PeerId::decode(r)?,
            state: ChannelState::decode(r)?,
        })
    }
}

impl Wire for TraceCtx {
    fn encode(&self, w: &mut Writer) {
        self.origin.encode(w);
        w.u64v(self.parent_start_us);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TraceCtx {
            origin: PeerId::decode(r)?,
            parent_start_us: r.u64v()?,
        })
    }
}

impl Wire for Resource {
    fn encode(&self, w: &mut Writer) {
        w.string(self.uri());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Resource::new(r.str()?))
    }
}

impl Wire for Literal {
    fn encode(&self, w: &mut Writer) {
        match self {
            Literal::String(s) => {
                w.byte(0);
                w.string(s);
            }
            Literal::Integer(i) => {
                w.byte(1);
                w.i64v(*i);
            }
            Literal::Float(f) => {
                w.byte(2);
                w.f64bits(*f);
            }
            Literal::Boolean(b) => {
                w.byte(3);
                w.boolean(*b);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Literal::String(r.str()?.into())),
            1 => Ok(Literal::Integer(r.i64v()?)),
            2 => Ok(Literal::Float(r.f64bits()?)),
            3 => Ok(Literal::Boolean(r.boolean()?)),
            tag => Err(WireError::BadTag {
                what: "Literal",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for Node {
    fn encode(&self, w: &mut Writer) {
        match self {
            Node::Resource(res) => {
                w.byte(0);
                res.encode(w);
            }
            Node::Literal(lit) => {
                w.byte(1);
                lit.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Node::Resource(Resource::decode(r)?)),
            1 => Ok(Node::Literal(Literal::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Node",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for ResultSet {
    /// Columns, the dictionary entries the rows use in the order they are
    /// first used, the row count, then every cell's id into those entries:
    /// unused entries and the dictionary's order never reach the wire, so
    /// decoding and encoding again gives back the same bytes.
    fn encode(&self, w: &mut Writer) {
        self.columns.encode(w);
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

impl Wire for Term {
    fn encode(&self, w: &mut Writer) {
        match self {
            Term::Var(v) => {
                w.byte(0);
                w.u16v(v.0);
            }
            Term::Resource(res) => {
                w.byte(1);
                res.encode(w);
            }
            Term::Literal(lit) => {
                w.byte(2);
                lit.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Term::Var(VarId(r.u16v()?))),
            1 => Ok(Term::Resource(Resource::decode(r)?)),
            2 => Ok(Term::Literal(Literal::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Term",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for Endpoint {
    fn encode(&self, w: &mut Writer) {
        self.term.encode(w);
        match self.class {
            None => w.byte(0),
            Some(c) => {
                w.byte(1);
                w.u32v(c.0);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let term = Term::decode(r)?;
        let class = match r.byte()? {
            0 => None,
            1 => Some(ClassId(r.u32v()?)),
            tag => {
                return Err(WireError::BadTag {
                    what: "Endpoint.class",
                    tag: tag as u64,
                })
            }
        };
        Ok(Endpoint { term, class })
    }
}

impl Wire for PathPattern {
    fn encode(&self, w: &mut Writer) {
        self.subject.encode(w);
        w.u32v(self.property.0);
        self.object.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PathPattern {
            subject: Endpoint::decode(r)?,
            property: PropertyId(r.u32v()?),
            object: Endpoint::decode(r)?,
        })
    }
}

impl Wire for PatternMatch {
    fn encode(&self, w: &mut Writer) {
        w.byte(match self {
            PatternMatch::Equivalent => 0,
            PatternMatch::SpecializesQuery => 1,
            PatternMatch::GeneralizesQuery => 2,
            PatternMatch::Overlaps => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(PatternMatch::Equivalent),
            1 => Ok(PatternMatch::SpecializesQuery),
            2 => Ok(PatternMatch::GeneralizesQuery),
            3 => Ok(PatternMatch::Overlaps),
            tag => Err(WireError::BadTag {
                what: "PatternMatch",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for PeerAnnotation {
    fn encode(&self, w: &mut Writer) {
        self.peer.encode(w);
        self.kind.encode(w);
        self.pattern.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PeerAnnotation {
            peer: PeerId::decode(r)?,
            kind: PatternMatch::decode(r)?,
            pattern: PathPattern::decode(r)?,
        })
    }
}

impl Wire for QueryPattern {
    fn encode(&self, w: &mut Writer) {
        w.u64v(schema_fingerprint(self.schema()));
        w.string(self.text());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let fp = r.u64v()?;
        let text = r.string()?;
        let schema = r.schemas().resolve(fp)?.clone();
        sqpeer_rql::compile(&text, &schema).map_err(|e| WireError::Query(e.to_string()))
    }
}

impl Wire for AnnotatedQuery {
    fn encode(&self, w: &mut Writer) {
        let query = self.query();
        query.encode(w);
        // One annotation list per path pattern; the count is implied by
        // the query, which `AnnotatedQuery::new` asserts against.
        for i in 0..query.patterns().len() {
            let anns = self.peers_for(i);
            w.usizev(anns.len());
            for a in anns {
                a.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let query = QueryPattern::decode(r)?;
        let mut annotations = Vec::with_capacity(query.patterns().len());
        for _ in 0..query.patterns().len() {
            let n = r.count()?;
            let mut anns = Vec::with_capacity(n);
            for _ in 0..n {
                anns.push(PeerAnnotation::decode(r)?);
            }
            annotations.push(anns);
        }
        Ok(AnnotatedQuery::new(query, annotations))
    }
}

impl Wire for ActiveProperty {
    fn encode(&self, w: &mut Writer) {
        w.u32v(self.property.0);
        w.u32v(self.domain.0);
        match self.range {
            None => w.byte(0),
            Some(c) => {
                w.byte(1);
                w.u32v(c.0);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let property = PropertyId(r.u32v()?);
        let domain = ClassId(r.u32v()?);
        let range = match r.byte()? {
            0 => None,
            1 => Some(ClassId(r.u32v()?)),
            tag => {
                return Err(WireError::BadTag {
                    what: "ActiveProperty.range",
                    tag: tag as u64,
                })
            }
        };
        Ok(ActiveProperty {
            property,
            domain,
            range,
        })
    }
}

impl Wire for ActiveSchema {
    fn encode(&self, w: &mut Writer) {
        w.u64v(schema_fingerprint(self.schema()));
        let classes: Vec<u32> = self.classes().map(|c| c.0).collect();
        classes.encode(w);
        w.usizev(self.active_properties().len());
        for p in self.active_properties() {
            p.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let fp = r.u64v()?;
        let schema = r.schemas().resolve(fp)?.clone();
        let classes = Vec::<u32>::decode(r)?;
        if classes.iter().any(|&c| c as usize >= schema.class_count()) {
            return Err(WireError::Mismatch("class id beyond schema"));
        }
        let n = r.count()?;
        let mut properties = Vec::with_capacity(n);
        for _ in 0..n {
            let p = ActiveProperty::decode(r)?;
            if p.property.0 as usize >= schema.property_count() {
                return Err(WireError::Mismatch("property id beyond schema"));
            }
            properties.push(p);
        }
        Ok(ActiveSchema::new(
            schema,
            classes.into_iter().map(ClassId),
            properties,
        ))
    }
}

impl Wire for PropertyStats {
    fn encode(&self, w: &mut Writer) {
        w.usizev(self.triples);
        w.usizev(self.distinct_subjects);
        w.usizev(self.distinct_objects);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PropertyStats {
            triples: usize::decode(r)?,
            distinct_subjects: usize::decode(r)?,
            distinct_objects: usize::decode(r)?,
        })
    }
}

impl Wire for ClassStats {
    fn encode(&self, w: &mut Writer) {
        w.usizev(self.instances);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ClassStats {
            instances: usize::decode(r)?,
        })
    }
}

impl Wire for BaseStatistics {
    fn encode(&self, w: &mut Writer) {
        let (props, classes, props_closed, classes_closed) = self.raw_parts();
        props.to_vec().encode(w);
        classes.to_vec().encode(w);
        props_closed.to_vec().encode(w);
        classes_closed.to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BaseStatistics::from_raw_parts(
            Vec::<PropertyStats>::decode(r)?,
            Vec::<ClassStats>::decode(r)?,
            Vec::<PropertyStats>::decode(r)?,
            Vec::<ClassStats>::decode(r)?,
        ))
    }
}

impl Wire for Advertisement {
    fn encode(&self, w: &mut Writer) {
        self.peer.encode(w);
        self.active.encode(w);
        self.stats.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Advertisement {
            peer: PeerId::decode(r)?,
            active: ActiveSchema::decode(r)?,
            stats: Option::<BaseStatistics>::decode(r)?,
        })
    }
}

impl Wire for Site {
    fn encode(&self, w: &mut Writer) {
        match self {
            Site::Peer(p) => {
                w.byte(0);
                p.encode(w);
            }
            Site::Hole => w.byte(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(Site::Peer(PeerId::decode(r)?)),
            1 => Ok(Site::Hole),
            tag => Err(WireError::BadTag {
                what: "Site",
                tag: tag as u64,
            }),
        }
    }
}

impl Wire for Subquery {
    fn encode(&self, w: &mut Writer) {
        self.covers.encode(w);
        self.query.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Subquery {
            covers: Vec::<usize>::decode(r)?,
            query: QueryPattern::decode(r)?,
        })
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
