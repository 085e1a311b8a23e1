//! Seed-determined inputs. Everything a workload feeds the product comes
//! from here and from `sqpeer-testkit`; the product itself never sees the
//! seed or the workload's name.
//!
//! The seed varies *which* resources, triples and orderings a run uses,
//! never *how much* work it is: placements are balanced and operation
//! mixes are quotas, so that two seeds measure the same workload and their
//! difference is noise, not a different experiment.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sqpeer::prelude::*;
use sqpeer_testkit::fixtures::base_with;
use sqpeer_testkit::{populate, DataSpec};
use std::sync::Arc;

/// An independent generator for one purpose (`stream`) of one run.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Zipf(1) weights over `ranks` ranks: rank `k` (1-based) weighs `1/k`.
pub fn zipf_weights(ranks: usize) -> Vec<f64> {
    (1..=ranks).map(|k| 1.0 / k as f64).collect()
}

/// A sequence of `total` indices into a pool weighted by `weights`, in a
/// seed-shuffled order. The *count* of each index is its largest-remainder
/// quota of `total`, not a random draw: with a few hundred operations a
/// sampled mix would move the cheap/expensive balance — and with it every
/// timing — by more than the regressions the benchmark is meant to see.
pub fn quota_sequence(weights: &[f64], total: usize, rng: &mut StdRng) -> Vec<usize> {
    let norm: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut sequence: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
        .collect();
    sequence.shuffle(rng);
    sequence
}

/// The four Figure-2 peer bases with seed-specific resource URIs: the same
/// shape and the same three answer rows to the Figure-1 query as
/// `testkit::fig2_bases`, but no two seeds share a byte of data.
pub fn point_bases(schema: &Arc<Schema>, seed: u64) -> Vec<DescriptionBase> {
    let tag = format!("{:08x}", seed as u32 ^ (seed >> 32) as u32);
    let uri = |host: &str, leaf: &str| format!("http://{host}/{tag}/{leaf}");
    let (p1a, p1b, p1c) = (uri("p1", "a"), uri("p1", "b"), uri("p1", "c"));
    let (p2a, shared, p3c) = (uri("p2", "a"), uri("shared", "b"), uri("p3", "c"));
    let (p4a, p4b, p4c) = (uri("p4", "a"), uri("p4", "b"), uri("p4", "c"));
    vec![
        base_with(schema, &[(&p1a, "prop1", &p1b), (&p1b, "prop2", &p1c)]),
        base_with(schema, &[(&p2a, "prop1", &shared)]),
        base_with(schema, &[(&shared, "prop2", &p3c)]),
        base_with(schema, &[(&p4a, "prop4", &p4b), (&p4b, "prop2", &p4c)]),
    ]
}

/// `peers` bases over `schema`, peer `i` populating the `per_peer`
/// properties that follow position `i` in the cycle of all properties.
/// Which peer holds which property is therefore the same for every seed,
/// and every property is held by the same number of peers (±1) — neither
/// of which `testkit::hier_network`'s independent draws give. The seed
/// decides the data: each peer draws its triples from the shared class
/// pools with a generator of its own.
pub fn balanced_bases(
    schema: &Arc<Schema>,
    peers: usize,
    per_peer: usize,
    data: DataSpec,
    seed: u64,
) -> Vec<DescriptionBase> {
    let cycle: Vec<PropertyId> = schema.properties().collect();
    (0..peers)
        .map(|i| {
            let props: Vec<PropertyId> = (0..per_peer.min(cycle.len()))
                .map(|j| cycle[(i + j) % cycle.len()])
                .collect();
            let mut base = DescriptionBase::new(Arc::clone(schema));
            populate(&mut base, &props, data, &mut rng(seed, 1_000 + i as u64));
            base
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqpeer_testkit::{community_schema, fig1_schema, SchemaSpec};

    #[test]
    fn zipf_sequence_is_deterministic_per_seed_and_keeps_its_quotas() {
        let w = zipf_weights(6);
        let a = quota_sequence(&w, 40, &mut rng(7, 2));
        let b = quota_sequence(&w, 40, &mut rng(7, 2));
        let c = quota_sequence(&w, 40, &mut rng(8, 2));
        assert_eq!(a, b, "same seed, same sequence");
        assert_ne!(a, c, "another seed, another order");
        let count = |seq: &[usize], i| seq.iter().filter(|&&x| x == i).count();
        // 40 × (1, 1/2, 1/3, 1/4, 1/5, 1/6) / 2.45 = 16.3 8.2 5.4 4.1 3.3 2.7
        for (i, want) in [16, 8, 6, 4, 3, 3].into_iter().enumerate() {
            assert_eq!(count(&a, i), want, "rank {}", i + 1);
            assert_eq!(count(&c, i), want, "quotas do not depend on the seed");
        }
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn uniform_quotas_spread_the_remainder() {
        let seq = quota_sequence(&[1.0; 3], 10, &mut rng(1, 1));
        let mut counts = [0; 3];
        seq.iter().for_each(|&i| counts[i] += 1);
        counts.sort_unstable();
        assert_eq!(counts, [3, 3, 4]);
    }

    #[test]
    fn point_bases_keep_the_figure_two_shape() {
        let schema = fig1_schema();
        let q = compile(sqpeer_testkit::fixtures::fig1_query_text(), &schema).unwrap();
        let answer = |seed| {
            let bases = point_bases(&schema, seed);
            assert_eq!(bases.len(), 4);
            let oracle = sqpeer::overlay::oracle_base(&schema, bases.iter());
            sqpeer::overlay::oracle_answer(&oracle, &q)
        };
        assert_eq!(answer(1).len(), 3);
        assert_eq!(answer(1), answer(1));
        assert_ne!(answer(1), answer(2));
    }

    #[test]
    fn balanced_placement_is_even_for_every_seed() {
        let schema = community_schema(SchemaSpec::default(), 3);
        let props = schema.property_count();
        let data = DataSpec {
            triples_per_property: 2,
            class_pool: 6,
        };
        for seed in [1, 2, 3] {
            let bases = balanced_bases(&schema, 50, 1, data, seed);
            let mut holders = vec![0usize; props];
            for base in &bases {
                for p in base.populated_properties() {
                    holders[schema.properties().position(|q| q == p).unwrap()] += 1;
                }
            }
            let (lo, hi) = (holders.iter().min().unwrap(), holders.iter().max().unwrap());
            assert!(hi - lo <= 1, "seed {seed}: {holders:?}");
        }
    }
}
