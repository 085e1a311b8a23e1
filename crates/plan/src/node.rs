//! The distributed plan algebra: `Q@P`, unions, joins and holes.

use sqpeer_routing::PeerId;
use sqpeer_rql::QueryPattern;
use std::fmt;

/// Where a subquery is evaluated: at a known peer or at a yet-unknown one
/// (a "hole", written `Q@?` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// A concrete peer.
    Peer(PeerId),
    /// Unknown — to be filled by a peer receiving the partial plan (§3.2).
    Hole,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Peer(p) => write!(f, "{p}"),
            Site::Hole => write!(f, "?"),
        }
    }
}

/// A conjunctive fragment of the original query shipped to one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct Subquery {
    /// Indices of the original query's path patterns this fragment covers
    /// (provenance for hole-filling and adaptation).
    pub covers: Vec<usize>,
    /// The executable (possibly peer-rewritten) conjunctive pattern.
    pub query: QueryPattern,
}

impl Subquery {
    /// Short label `Q1`, `Q2` or `Q1.Q2` derived from the covered pattern
    /// indices (matching the paper's figures).
    pub fn label(&self) -> String {
        Label(&self.covers).to_string()
    }
}

/// [`Subquery::label`] as a `Display`, so rendering a plan allocates
/// nothing per fetch.
struct Label<'a>(&'a [usize]);

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("Q");
        }
        for (n, i) in self.0.iter().enumerate() {
            if n > 0 {
                f.write_str(".")?;
            }
            write!(f, "Q{}", i + 1)?;
        }
        Ok(())
    }
}

/// A distributed query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Evaluate `subquery` at `site` and stream the result back.
    Fetch {
        /// The shipped fragment.
        subquery: Subquery,
        /// Where it runs.
        site: Site,
    },
    /// Set-union of the inputs (horizontal distribution).
    Union(Vec<PlanNode>),
    /// Natural join of the inputs (vertical distribution), executed at
    /// `site` (`None` = at the query-initiating peer).
    Join {
        /// The joined inputs.
        inputs: Vec<PlanNode>,
        /// The execution site chosen by the shipping optimiser; `None`
        /// before site assignment (executes at the initiator).
        site: Option<PeerId>,
    },
}

impl PlanNode {
    /// Convenience constructor for an unsited join.
    pub fn join(inputs: Vec<PlanNode>) -> PlanNode {
        PlanNode::Join { inputs, site: None }
    }

    /// Number of `Fetch` leaves.
    pub fn fetch_count(&self) -> usize {
        match self {
            PlanNode::Fetch { .. } => 1,
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                inputs.iter().map(PlanNode::fetch_count).sum()
            }
        }
    }

    /// Number of `Fetch` leaves with unknown site — the plan's holes.
    pub fn hole_count(&self) -> usize {
        match self {
            PlanNode::Fetch {
                site: Site::Hole, ..
            } => 1,
            PlanNode::Fetch { .. } => 0,
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                inputs.iter().map(PlanNode::hole_count).sum()
            }
        }
    }

    /// Is the plan complete (free of holes)?
    pub fn is_complete(&self) -> bool {
        self.hole_count() == 0
    }

    /// Distinct peers appearing anywhere in the plan (fetch sites and join
    /// sites).
    pub fn peers(&self) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.collect_peers(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_peers(&self, out: &mut Vec<PeerId>) {
        match self {
            PlanNode::Fetch {
                site: Site::Peer(p),
                ..
            } => out.push(*p),
            PlanNode::Fetch { .. } => {}
            PlanNode::Union(inputs) => {
                for i in inputs {
                    i.collect_peers(out);
                }
            }
            PlanNode::Join { inputs, site } => {
                if let Some(p) = site {
                    out.push(*p);
                }
                for i in inputs {
                    i.collect_peers(out);
                }
            }
        }
    }

    /// The number of subplan messages the initiating peer must ship: one
    /// per distinct peer contacted directly from the root (§2.4: "although
    /// each of these peers may contribute … only one channel is created").
    pub fn subplans_shipped(&self) -> usize {
        self.peers().len()
    }

    /// Depth of the plan tree.
    pub fn depth(&self) -> usize {
        match self {
            PlanNode::Fetch { .. } => 1,
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                1 + inputs.iter().map(PlanNode::depth).max().unwrap_or(0)
            }
        }
    }

    /// Visits every node (pre-order).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        match self {
            PlanNode::Fetch { .. } => {}
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                for i in inputs {
                    i.visit(f);
                }
            }
        }
    }

    /// Rewrites every fetch leaf bottom-up (used by hole-filling and
    /// run-time adaptation).
    pub fn map_fetches(self, f: &mut impl FnMut(Subquery, Site) -> PlanNode) -> PlanNode {
        match self {
            PlanNode::Fetch { subquery, site } => f(subquery, site),
            PlanNode::Union(inputs) => {
                PlanNode::Union(inputs.into_iter().map(|n| n.map_fetches(f)).collect())
            }
            PlanNode::Join { inputs, site } => PlanNode::Join {
                inputs: inputs.into_iter().map(|n| n.map_fetches(f)).collect(),
                site,
            },
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanNode::Fetch { subquery, site } => {
                write!(f, "{}@{}", Label(&subquery.covers), site)
            }
            PlanNode::Union(inputs) => {
                write!(f, "∪(")?;
                for (i, input) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{input}")?;
                }
                write!(f, ")")
            }
            PlanNode::Join { inputs, site } => {
                write!(f, "⋈")?;
                if let Some(p) = site {
                    write!(f, "@{p}")?;
                }
                write!(f, "(")?;
                for (i, input) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{input}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_rdfs::{Range, SchemaBuilder};
    use sqpeer_rql::compile;
    use std::sync::Arc;

    fn sample_subquery(covers: Vec<usize>) -> Subquery {
        let mut b = SchemaBuilder::new("n1", "u");
        let c1 = b.class("C1").unwrap();
        let c2 = b.class("C2").unwrap();
        let _ = b.property("p", c1, Range::Class(c2)).unwrap();
        let s = Arc::new(b.finish().unwrap());
        Subquery {
            covers,
            query: compile("SELECT X, Y FROM {X}p{Y}", &s).unwrap(),
        }
    }

    fn fetch(covers: Vec<usize>, site: Site) -> PlanNode {
        PlanNode::Fetch {
            subquery: sample_subquery(covers),
            site,
        }
    }

    #[test]
    fn counting_and_holes() {
        let plan = PlanNode::join(vec![
            PlanNode::Union(vec![
                fetch(vec![0], Site::Peer(PeerId(1))),
                fetch(vec![0], Site::Peer(PeerId(2))),
            ]),
            fetch(vec![1], Site::Hole),
        ]);
        assert_eq!(plan.fetch_count(), 3);
        assert_eq!(plan.hole_count(), 1);
        assert!(!plan.is_complete());
        assert_eq!(plan.peers(), vec![PeerId(1), PeerId(2)]);
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.subplans_shipped(), 2);
    }

    #[test]
    fn display_matches_paper_notation() {
        let plan = PlanNode::join(vec![
            PlanNode::Union(vec![
                fetch(vec![0], Site::Peer(PeerId(1))),
                fetch(vec![0], Site::Peer(PeerId(2))),
            ]),
            fetch(vec![1], Site::Hole),
        ]);
        assert_eq!(plan.to_string(), "⋈(∪(Q1@P1, Q1@P2), Q2@?)");
    }

    #[test]
    fn composite_labels() {
        assert_eq!(sample_subquery(vec![0, 1]).label(), "Q1.Q2");
        assert_eq!(sample_subquery(vec![]).label(), "Q");
    }

    #[test]
    fn map_fetches_fills_holes() {
        let plan = PlanNode::join(vec![
            fetch(vec![0], Site::Peer(PeerId(1))),
            fetch(vec![1], Site::Hole),
        ]);
        let filled = plan.map_fetches(&mut |sq, site| {
            let site = if site == Site::Hole {
                Site::Peer(PeerId(9))
            } else {
                site
            };
            PlanNode::Fetch { subquery: sq, site }
        });
        assert!(filled.is_complete());
        assert_eq!(filled.peers(), vec![PeerId(1), PeerId(9)]);
    }

    #[test]
    fn sited_join_display_and_peers() {
        let plan = PlanNode::Join {
            inputs: vec![fetch(vec![0], Site::Peer(PeerId(2)))],
            site: Some(PeerId(2)),
        };
        assert_eq!(plan.to_string(), "⋈@P2(Q1@P2)");
        assert_eq!(plan.peers(), vec![PeerId(2)]);
    }
}
