//! What a peer does alone, under Zipf-skewed repeats: the semantic
//! routing cache (E15) and interned local evaluation (E16).

use crate::alloc;
use crate::harness::{best_of, fixed, timed, BenchJson};
use crate::scenario::{cache_registry, eval_base, eval_workload};
use crate::table::{f1, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqpeer::cache::SemanticCache;
use sqpeer::prelude::*;
use sqpeer::routing::{RoutingLimits, RoutingPolicy};
use sqpeer::rql::evaluate_snapshot;
use sqpeer_testkit::fixtures::fig1_schema;
use sqpeer_testkit::zipf_workload;

pub fn e15() -> String {
    let schema = fig1_schema();
    let mut out = String::from(
        "E15: subsumption-aware routing cache on Zipf workloads\n\n\
         200 queries from a 6-query pool; `scan work` counts ad×pattern\n\
         subsumption checks actually performed (cold does all of them).\n\n",
    );
    let mut t =
        Table::new("ads, zipf s, exact hits, subsume hits, misses, hit rate, scan work vs cold");
    for ads_n in [64usize, 512] {
        let reg = cache_registry(&schema, ads_n);
        for s in [0.0f64, 0.7, 1.2] {
            let mut rng = StdRng::seed_from_u64(15);
            let workload = zipf_workload(&schema, 6, &[1, 2], s, 200, &mut rng);
            let total_patterns: usize = workload.iter().map(|q| q.patterns().len()).sum();
            let mut cache = SemanticCache::default();
            for q in &workload {
                cache.route(
                    &reg,
                    q,
                    RoutingPolicy::SubsumedOnly,
                    RoutingLimits::unlimited(),
                );
            }
            let st = cache.stats();
            // Every miss rescans all ads; each cold lookup would too.
            let warm_scans = st.misses as usize * ads_n;
            let cold_scans = total_patterns * ads_n;
            t.row(vec![
                ads_n.to_string(),
                format!("{s:.1}"),
                st.hits.to_string(),
                st.subsumption_hits.to_string(),
                st.misses.to_string(),
                format!("{:.1} %", 100.0 * st.hit_rate()),
                format!("{:.1} %", 100.0 * warm_scans as f64 / cold_scans as f64),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nshape check: the miss count is bounded by the distinct-pattern pool\n\
         regardless of workload length or skew, so scan work collapses to a\n\
         few percent of the uncached baseline.\n",
    );
    out
}

pub fn e16(json: BenchJson) -> String {
    let schema = fig1_schema();
    let base = eval_base(&schema, 2700);
    let triples = base.triple_count();
    // A clone taken before any snapshot exists stays cold.
    let cold_base = base.clone();
    let workload = eval_workload(&schema);

    // One timed pass over the workload: total rows under `rows_of`, with
    // the allocation calls and bytes it made.
    let pass = |rows_of: &dyn Fn(&QueryPattern) -> usize| {
        timed(|| alloc::measure(|| workload.iter().map(rows_of).sum::<usize>()))
    };
    // Reference and warm are best-of-3, and every rep must allocate alike.
    let reference = best_of(3, || pass(&|q| evaluate_reference(q, &base).len()));
    // Cold: the first query pays the snapshot build. One-shot by nature,
    // so no best-of (a second rep would be warm).
    let cold = pass(&|q| evaluate(q, &cold_base).len());
    // Warm: snapshot prebuilt, shared across the workload.
    let ib = base.interned();
    let warm = best_of(3, || pass(&|q| evaluate_snapshot(q, &ib).len()));
    let ((ref_rows, _, _), ref_ms) = reference;
    let (((_, cold_calls, cold_bytes), cold_ms), ((_, warm_calls, warm_bytes), warm_ms)) =
        (cold, warm);
    let per_query = |n: u64| fixed(n as f64 / workload.len() as f64, 3);

    let mut out = format!(
        "E16: interned, statistics-ordered local evaluation\n\n\
         {} queries (Zipf s=1.0, chain lengths 1-2) over a {} -triple\n\
         Figure 1 base; cold includes the snapshot build, warm reuses it.\n\n",
        workload.len(),
        triples
    );
    let mut t1 = Table::new(
        "engine, total ms, rows, speedup vs reference, alloc calls/query, alloc bytes/query",
    );
    let engines = [
        ("reference (row-at-a-time)", reference),
        ("interned (cold)", cold),
        ("interned (warm)", warm),
    ];
    for (engine, ((rows, calls, bytes), ms)) in engines {
        assert_eq!(rows, ref_rows, "engines must agree");
        t1.row(vec![
            engine.into(),
            format!("{ms:.2}"),
            rows.to_string(),
            format!("{} x", f1(ref_ms / ms)),
            per_query(calls),
            per_query(bytes),
        ]);
    }
    out.push_str(&t1.render());

    json.field("base_triples", triples)
        .field("queries", workload.len())
        .field("reference_ms", fixed(ref_ms, 3))
        .field("interned_cold_ms", fixed(cold_ms, 3))
        .field("interned_warm_ms", fixed(warm_ms, 3))
        .field("speedup_warm", fixed(ref_ms / warm_ms, 2))
        .field("speedup_cold", fixed(ref_ms / cold_ms, 2))
        .field("cold_alloc_calls_per_query", per_query(cold_calls))
        .field("cold_alloc_bytes_per_query", per_query(cold_bytes))
        .field("warm_alloc_calls_per_query", per_query(warm_calls))
        .field("warm_alloc_bytes_per_query", per_query(warm_bytes))
        .write(&mut out);
    out.push_str(&format!(
        "\nacceptance: warm interned evaluation is {} x the reference engine;\n\
         the reps of an engine allocate alike (asserted).\n",
        f1(ref_ms / warm_ms)
    ));
    out
}
