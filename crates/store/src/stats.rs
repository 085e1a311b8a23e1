//! Statistics snapshots of description bases.
//!
//! The SQPeer optimiser (paper §2.5) chooses between data, query and hybrid
//! shipping using "statistics held by each peer", notably "the expected size
//! of peers' query results". [`BaseStatistics`] is the snapshot a peer
//! attaches to its advertisement (or ships in channel data packets — §2.4
//! notes packets "can also contain ... statistics useful for query
//! optimization").

use sqpeer_rdfs::{ClassId, PropertyId, Schema};
use std::sync::Arc;

/// Per-property cardinalities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropertyStats {
    /// Number of triples in the direct extent.
    pub triples: usize,
    /// Number of distinct subjects in the direct extent.
    pub distinct_subjects: usize,
    /// Number of distinct objects in the direct extent.
    pub distinct_objects: usize,
}

/// Per-class cardinalities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Number of resources in the direct extent.
    pub instances: usize,
}

/// A statistics snapshot of one peer base, with subsumption-closed lookups.
///
/// Immutable and shared behind an [`Arc`]: every advertisement and data
/// packet that carries the snapshot of one base version holds the same
/// vectors, and a clone is a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseStatistics(Arc<StatsData>);

#[derive(Debug, PartialEq, Eq)]
struct StatsData {
    props: Vec<PropertyStats>,
    classes: Vec<ClassStats>,
    /// Closed (subsumption-aware) triple counts, precomputed at snapshot
    /// time so consumers do not need the schema.
    props_closed: Vec<PropertyStats>,
    classes_closed: Vec<ClassStats>,
    /// The exact encoded size, computed once at construction.
    wire_size: usize,
}

impl BaseStatistics {
    /// Builds a snapshot from direct per-property/per-class statistics,
    /// precomputing the subsumption-closed aggregates.
    pub fn new(props: Vec<PropertyStats>, classes: Vec<ClassStats>, schema: &Schema) -> Self {
        let props_closed = schema
            .properties()
            .map(|p| {
                let mut agg = PropertyStats::default();
                for sub in schema.property_descendant_set(p).iter() {
                    let s = &props[sub];
                    agg.triples += s.triples;
                    // Upper bounds: distinct counts cannot be summed exactly
                    // without the data, so the closed snapshot over-estimates,
                    // which is the safe direction for join-size estimation.
                    agg.distinct_subjects += s.distinct_subjects;
                    agg.distinct_objects += s.distinct_objects;
                }
                agg
            })
            .collect();
        let classes_closed = schema
            .classes()
            .map(|c| {
                let mut agg = ClassStats::default();
                for sub in schema.class_descendant_set(c).iter() {
                    agg.instances += classes[sub].instances;
                }
                agg
            })
            .collect();
        BaseStatistics::from_raw_parts(props, classes, props_closed, classes_closed)
    }

    /// Direct statistics for property `p`.
    pub fn property(&self, p: PropertyId) -> PropertyStats {
        at(&self.0.props, p.0)
    }

    /// Subsumption-closed statistics for property `p` (includes all
    /// subproperties).
    pub fn property_closed(&self, p: PropertyId) -> PropertyStats {
        at(&self.0.props_closed, p.0)
    }

    /// Direct statistics for class `c`.
    pub fn class(&self, c: ClassId) -> ClassStats {
        at(&self.0.classes, c.0)
    }

    /// Subsumption-closed statistics for class `c`.
    pub fn class_closed(&self, c: ClassId) -> ClassStats {
        at(&self.0.classes_closed, c.0)
    }

    /// Total triples in the snapshot.
    pub fn total_triples(&self) -> usize {
        self.0.props.iter().map(|p| p.triples).sum()
    }

    /// Reassembles a snapshot from vectors produced by
    /// [`BaseStatistics::raw_parts`] — the wire-decoding path, where no
    /// schema is available to recompute the closed aggregates, so both the
    /// direct and the precomputed closed vectors travel verbatim.
    pub fn from_raw_parts(
        props: Vec<PropertyStats>,
        classes: Vec<ClassStats>,
        props_closed: Vec<PropertyStats>,
        classes_closed: Vec<ClassStats>,
    ) -> Self {
        let wire_size = wire_size(&props, &classes, &props_closed, &classes_closed);
        BaseStatistics(Arc::new(StatsData {
            props,
            classes,
            props_closed,
            classes_closed,
            wire_size,
        }))
    }

    /// The exact encoded size of this snapshot under the wire codec
    /// (four length-prefixed vectors of varints), computed once when the
    /// snapshot is built. Message-size accounting uses this so the
    /// simulator charges bandwidth for the bytes the codec actually
    /// frames, instead of a flat per-snapshot guess.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size
    }

    /// The four statistics vectors (direct properties, direct classes,
    /// closed properties, closed classes) — the wire-encoding path.
    pub fn raw_parts(
        &self,
    ) -> (
        &[PropertyStats],
        &[ClassStats],
        &[PropertyStats],
        &[ClassStats],
    ) {
        let d = &*self.0;
        (&d.props, &d.classes, &d.props_closed, &d.classes_closed)
    }
}

/// Entry `id` of a statistics vector; an id past its end counts nothing.
fn at<T: Copy + Default>(stats: &[T], id: u32) -> T {
    stats.get(id as usize).copied().unwrap_or_default()
}

fn wire_size(
    props: &[PropertyStats],
    classes: &[ClassStats],
    props_closed: &[PropertyStats],
    classes_closed: &[ClassStats],
) -> usize {
    fn varint_len(mut v: u64) -> usize {
        let mut n = 1;
        while v >= 0x80 {
            v >>= 7;
            n += 1;
        }
        n
    }
    fn props_len(ps: &[PropertyStats]) -> usize {
        varint_len(ps.len() as u64)
            + ps.iter()
                .map(|p| {
                    varint_len(p.triples as u64)
                        + varint_len(p.distinct_subjects as u64)
                        + varint_len(p.distinct_objects as u64)
                })
                .sum::<usize>()
    }
    fn classes_len(cs: &[ClassStats]) -> usize {
        varint_len(cs.len() as u64)
            + cs.iter()
                .map(|c| varint_len(c.instances as u64))
                .sum::<usize>()
    }
    props_len(props) + classes_len(classes) + props_len(props_closed) + classes_len(classes_closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, SchemaBuilder};

    #[test]
    fn closed_stats_aggregate_subproperties() {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let c5 = b.subclass("C5", c1).unwrap();
        let c6 = b.subclass("C6", c2).unwrap();
        let p1 = b.property("p1", c1, Range::Class(c2)).unwrap();
        let p4 = b.subproperty("p4", p1, c5, Range::Class(c6)).unwrap();
        let schema = b.finish().unwrap();

        let mut props = vec![PropertyStats::default(); schema.property_count()];
        props[p1.0 as usize] = PropertyStats {
            triples: 10,
            distinct_subjects: 5,
            distinct_objects: 8,
        };
        props[p4.0 as usize] = PropertyStats {
            triples: 4,
            distinct_subjects: 2,
            distinct_objects: 4,
        };
        let mut classes = vec![ClassStats::default(); schema.class_count()];
        classes[c1.0 as usize] = ClassStats { instances: 5 };
        classes[c5.0 as usize] = ClassStats { instances: 2 };

        let stats = BaseStatistics::new(props, classes, &schema);
        assert_eq!(stats.property(p1).triples, 10);
        assert_eq!(stats.property_closed(p1).triples, 14);
        assert_eq!(stats.property_closed(p4).triples, 4);
        assert_eq!(stats.class(c1).instances, 5);
        assert_eq!(stats.class_closed(c1).instances, 7);
        assert_eq!(stats.total_triples(), 14);
    }

    #[test]
    fn out_of_range_ids_default() {
        let stats = BaseStatistics::from_raw_parts(vec![], vec![], vec![], vec![]);
        assert_eq!(stats.property(PropertyId(42)).triples, 0);
        assert_eq!(stats.class_closed(ClassId(42)).instances, 0);
    }
}
