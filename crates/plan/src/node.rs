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
    /// The original query's path patterns this fragment covers, bit `i`
    /// for pattern `i` (provenance for hole-filling and adaptation); a
    /// query has at most 64 ([`sqpeer_rql::MAX_PATTERNS`]).
    pub covers: u64,
    /// The executable (possibly peer-rewritten) conjunctive pattern.
    pub query: QueryPattern,
}

impl Subquery {
    /// The indices of the covered patterns, ascending.
    pub fn covered(&self) -> impl Iterator<Item = usize> {
        let covers = self.covers;
        (0..64).filter(move |i| covers >> i & 1 == 1)
    }
}

/// The short label `Q1`, `Q2` or `Q1.Q2` of the covered patterns
/// (matching the paper's figures).
impl fmt::Display for Subquery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.covers == 0 {
            return f.write_str("Q");
        }
        for (n, i) in self.covered().enumerate() {
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
        self.count(|n| matches!(n, PlanNode::Fetch { .. }))
    }

    /// Number of `Fetch` leaves with unknown site — the plan's holes.
    pub fn hole_count(&self) -> usize {
        self.count(|n| {
            matches!(
                n,
                PlanNode::Fetch {
                    site: Site::Hole,
                    ..
                }
            )
        })
    }

    /// Number of nodes for which `f` holds.
    fn count(&self, f: impl Fn(&PlanNode) -> bool) -> usize {
        let mut n = 0;
        self.visit(&mut |node| n += usize::from(f(node)));
        n
    }

    /// Is the plan complete (free of holes)?
    pub fn is_complete(&self) -> bool {
        self.hole_count() == 0
    }

    /// Distinct peers appearing anywhere in the plan (fetch sites and join
    /// sites).
    pub fn peers(&self) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.visit(&mut |node| match node {
            PlanNode::Fetch {
                site: Site::Peer(p),
                ..
            }
            | PlanNode::Join { site: Some(p), .. } => out.push(*p),
            _ => {}
        });
        out.sort();
        out.dedup();
        out
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
                write!(f, "{subquery}@{site}")
            }
            PlanNode::Union(inputs) | PlanNode::Join { inputs, .. } => {
                match self {
                    PlanNode::Join { site: Some(p), .. } => write!(f, "⋈@{p}(")?,
                    PlanNode::Join { .. } => write!(f, "⋈(")?,
                    _ => write!(f, "∪(")?,
                }
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

    fn sample_subquery(covers: u64) -> Subquery {
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

    fn fetch(covers: u64, site: Site) -> PlanNode {
        PlanNode::Fetch {
            subquery: sample_subquery(covers),
            site,
        }
    }

    #[test]
    fn counting_and_holes() {
        let plan = PlanNode::join(vec![
            PlanNode::Union(vec![
                fetch(0b1, Site::Peer(PeerId(1))),
                fetch(0b1, Site::Peer(PeerId(2))),
            ]),
            fetch(0b10, Site::Hole),
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
                fetch(0b1, Site::Peer(PeerId(1))),
                fetch(0b1, Site::Peer(PeerId(2))),
            ]),
            fetch(0b10, Site::Hole),
        ]);
        assert_eq!(plan.to_string(), "⋈(∪(Q1@P1, Q1@P2), Q2@?)");
    }

    #[test]
    fn composite_labels() {
        assert_eq!(sample_subquery(0b11).to_string(), "Q1.Q2");
        assert_eq!(sample_subquery(0).to_string(), "Q");
    }

    #[test]
    fn map_fetches_fills_holes() {
        let plan = PlanNode::join(vec![
            fetch(0b1, Site::Peer(PeerId(1))),
            fetch(0b10, Site::Hole),
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
            inputs: vec![fetch(0b1, Site::Peer(PeerId(2)))],
            site: Some(PeerId(2)),
        };
        assert_eq!(plan.to_string(), "⋈@P2(Q1@P2)");
        assert_eq!(plan.peers(), vec![PeerId(2)]);
    }
}
