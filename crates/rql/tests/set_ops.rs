//! `ResultSet`'s set operations against the implementation they replaced.
//!
//! [`reference`] keeps the previous bodies of `extend_distinct`,
//! `union_all`, `union_delta`, `project` and `join` — a `FxHashSet<Row>` of
//! cloned rows rebuilt on every call — word for word. The index-based
//! versions, and `join_onto` against `join` then `project`, must produce
//! the same columns, the same rows **in the same order**
//! (order decides how an answer is cut into batches, hence `wire_size()`
//! and every byte counter downstream) and the same returned delta.
//! Outputs are compared through `{:?}` so that rows holding a NaN, which
//! no set operation ever merges, still compare.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer_rdfs::{Literal, Node, Resource};
use sqpeer_rql::{ResultSet, Row, UnionAcc};

mod reference {
    use sqpeer_rdfs::{FxHashMap, FxHashSet, Node};
    use sqpeer_rql::{ResultSet, Row};

    pub fn extend_distinct(this: &mut ResultSet, rows: impl IntoIterator<Item = Row>) {
        let mut seen: FxHashSet<Row> = this.rows.iter().cloned().collect();
        for row in rows {
            if seen.insert(row.clone()) {
                this.rows.push(row);
            }
        }
    }

    pub fn union_all<'a>(this: &mut ResultSet, parts: impl IntoIterator<Item = &'a ResultSet>) {
        let mut seen: FxHashSet<Row> = this.rows.iter().cloned().collect();
        for part in parts {
            let perm: Option<Vec<usize>> =
                this.columns.iter().map(|c| part.column_index(c)).collect();
            let Some(perm) = perm else { continue };
            for row in &part.rows {
                let row: Row = perm.iter().map(|&i| row[i].clone()).collect();
                if seen.insert(row.clone()) {
                    this.rows.push(row);
                }
            }
        }
    }

    pub fn union_delta(this: &mut ResultSet, other: &ResultSet) -> Vec<Row> {
        let mut seen: FxHashSet<Row> = this.rows.iter().cloned().collect();
        let mut delta = Vec::new();
        let perm: Option<Vec<usize>> = this.columns.iter().map(|c| other.column_index(c)).collect();
        let Some(perm) = perm else { return delta };
        for row in &other.rows {
            let row: Row = perm.iter().map(|&i| row[i].clone()).collect();
            if seen.insert(row.clone()) {
                this.rows.push(row.clone());
                delta.push(row);
            }
        }
        delta
    }

    pub fn project(this: &ResultSet, names: &[String]) -> ResultSet {
        let idx: Vec<usize> = names.iter().filter_map(|n| this.column_index(n)).collect();
        let mut out = ResultSet::empty(idx.iter().map(|&i| this.columns[i].clone()).collect());
        extend_distinct(
            &mut out,
            this.rows
                .iter()
                .map(|row| idx.iter().map(|&i| row[i].clone()).collect::<Row>()),
        );
        out
    }

    pub fn join(this: &ResultSet, other: &ResultSet) -> ResultSet {
        let shared: Vec<(usize, usize)> = this
            .columns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| other.column_index(c).map(|j| (i, j)))
            .collect();
        let other_extra: Vec<usize> = (0..other.columns.len())
            .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
            .collect();
        let mut columns = this.columns.clone();
        columns.extend(other_extra.iter().map(|&j| other.columns[j].clone()));

        let mut out = ResultSet::empty(columns);
        let mut seen: FxHashSet<Row> = FxHashSet::default();
        if shared.is_empty() {
            // Cartesian product (only reachable through hand-built plans).
            for a in &this.rows {
                for b in &other.rows {
                    let mut row = a.clone();
                    row.extend(other_extra.iter().map(|&j| b[j].clone()));
                    if seen.insert(row.clone()) {
                        out.rows.push(row);
                    }
                }
            }
            return out;
        }
        // Intern the build side's key columns; probe keys that miss the
        // interner cannot match any build row.
        let mut intern: FxHashMap<&Node, u32> = FxHashMap::default();
        let mut index: FxHashMap<Vec<u32>, Vec<&Row>> = FxHashMap::default();
        for b in &other.rows {
            let key: Vec<u32> = shared
                .iter()
                .map(|&(_, j)| {
                    let next = intern.len() as u32;
                    *intern.entry(&b[j]).or_insert(next)
                })
                .collect();
            index.entry(key).or_default().push(b);
        }
        for a in &this.rows {
            let key: Option<Vec<u32>> = shared
                .iter()
                .map(|&(i, _)| intern.get(&a[i]).copied())
                .collect();
            let Some(key) = key else { continue };
            if let Some(matches) = index.get(&key) {
                for b in matches {
                    let mut row = a.clone();
                    row.extend(other_extra.iter().map(|&j| b[j].clone()));
                    if seen.insert(row.clone()) {
                        out.rows.push(row);
                    }
                }
            }
        }
        out
    }
}

/// A cell from a domain small enough that rows collide: resources and all
/// four literal kinds, a NaN among them.
fn cell(rng: &mut StdRng) -> Node {
    let v = rng.gen_range(0..3u32);
    match rng.gen_range(0..6u8) {
        0 | 1 => Node::Resource(Resource::new(format!("http://example.org/r{v}"))),
        2 => Node::Literal(Literal::string(format!("s{v}"))),
        3 => Node::Literal(Literal::Integer(i64::from(v) - 1)),
        4 if v == 0 => Node::Literal(Literal::Float(f64::NAN)),
        4 => Node::Literal(Literal::Float(f64::from(v) / 2.0)),
        _ => Node::Literal(Literal::Boolean(v == 0)),
    }
}

fn table(rng: &mut StdRng, columns: Vec<String>, max_rows: usize) -> ResultSet {
    let rows = (0..rng.gen_range(0..=max_rows))
        .map(|_| columns.iter().map(|_| cell(rng)).collect())
        .collect();
    ResultSet { columns, rows }
}

fn shuffled(rng: &mut StdRng, mut names: Vec<String>) -> Vec<String> {
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    names
}

/// An accumulator over 0–3 columns, duplicates allowed.
fn accumulator(rng: &mut StdRng) -> ResultSet {
    let names = ["X", "Y", "Z"].map(String::from);
    let columns = names[..rng.gen_range(0..=3)].to_vec();
    table(rng, columns, 10)
}

/// A part to union into `acc`: its columns permuted, sometimes one
/// missing (the part is then skipped) or one extra; duplicates within.
fn part_for(rng: &mut StdRng, acc: &ResultSet) -> ResultSet {
    let mut columns = shuffled(rng, acc.columns.clone());
    match rng.gen_range(0..6u8) {
        0 if !columns.is_empty() => {
            columns.pop();
        }
        1 => {
            let at = rng.gen_range(0..=columns.len());
            columns.insert(at, "W".to_string());
        }
        _ => {}
    }
    table(rng, columns, 10)
}

/// The two sides of a join, each over 0–3 of five names in random order:
/// shared columns overlap, sit permuted, or are absent (a cartesian
/// product); either side may be empty; duplicates within.
fn join_sides(rng: &mut StdRng) -> (ResultSet, ResultSet) {
    let names = ["X", "Y", "Z", "W", "V"].map(String::from);
    let side = |rng: &mut StdRng| {
        let columns = shuffled(rng, names.to_vec())[..rng.gen_range(0..=3)].to_vec();
        table(rng, columns, 12)
    };
    (side(rng), side(rng))
}

fn shown(set: &ResultSet) -> String {
    format!("{set:?}")
}

proptest! {
    #[test]
    fn union_all_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let acc = accumulator(rng);
        let parts: Vec<ResultSet> = (0..rng.gen_range(0..5)).map(|_| part_for(rng, &acc)).collect();

        let mut expected = acc.clone();
        reference::union_all(&mut expected, &parts);

        let mut by_ref = acc.clone();
        by_ref.union_all(&parts);
        prop_assert_eq!(shown(&by_ref), shown(&expected));

        let mut by_value = acc.clone();
        by_value.union_all_owned(parts.clone());
        prop_assert_eq!(shown(&by_value), shown(&expected));

        // One at a time is the same fold.
        let mut one_by_one = acc;
        for part in &parts {
            one_by_one.union(part);
        }
        prop_assert_eq!(shown(&one_by_one), shown(&expected));
    }

    #[test]
    fn union_delta_matches_reference_batch_after_batch(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let acc = accumulator(rng);
        let batches: Vec<ResultSet> =
            (0..rng.gen_range(1..5)).map(|_| part_for(rng, &acc)).collect();

        let mut expected = acc.clone();
        let mut one_shot = acc.clone();
        let mut kept = UnionAcc::new(acc);
        for batch in &batches {
            let delta = reference::union_delta(&mut expected, batch);
            prop_assert_eq!(format!("{:?}", one_shot.union_delta(batch)), format!("{delta:?}"));
            prop_assert_eq!(format!("{:?}", kept.union_delta(batch)), format!("{delta:?}"));
            prop_assert_eq!(shown(&one_shot), shown(&expected));
        }
        prop_assert_eq!(shown(&kept.into_result()), shown(&expected));
    }

    #[test]
    fn extend_distinct_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let acc = accumulator(rng);
        let rows: Vec<Row> = table(rng, acc.columns.clone(), 12).rows;

        let mut expected = acc.clone();
        reference::extend_distinct(&mut expected, rows.clone());
        let mut got = acc;
        got.extend_distinct(rows);
        prop_assert_eq!(shown(&got), shown(&expected));
    }

    /// `project` is defined on a result set proper — distinct rows, which
    /// is what lets a projection that keeps every column skip the dedup.
    #[test]
    fn project_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let drawn = accumulator(rng);
        let mut set = ResultSet::empty(drawn.columns);
        set.extend_distinct(drawn.rows);

        // A permutation, a subset, a repeated or an unknown name.
        let mut names = shuffled(rng, set.columns.clone());
        match rng.gen_range(0..5u8) {
            0 if !names.is_empty() => {
                names.pop();
            }
            1 if !names.is_empty() => names.push(names[0].clone()),
            2 => names.push("W".to_string()),
            _ => {}
        }

        let expected = reference::project(&set, &names);
        prop_assert_eq!(shown(&set.project(&names)), shown(&expected));
        prop_assert_eq!(shown(&set.into_projection(&names)), shown(&expected));
    }

    #[test]
    fn join_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = join_sides(rng);
        prop_assert_eq!(shown(&a.join(&b)), shown(&reference::join(&a, &b)));
    }

    /// `join_onto` is `join` then `project`, row for row, and reports the
    /// unprojected join's row count.
    #[test]
    fn join_onto_matches_reference_join_then_project(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = join_sides(rng);
        let joined = reference::join(&a, &b);

        // Every column permuted, a subset, a repeated or an unknown name.
        let mut names = shuffled(rng, joined.columns.clone());
        match rng.gen_range(0..5u8) {
            0 if !names.is_empty() => {
                names.truncate(rng.gen_range(0..names.len()));
            }
            1 if !names.is_empty() => names.push(names[0].clone()),
            2 => names.insert(rng.gen_range(0..=names.len()), "U".to_string()),
            _ => {}
        }

        let (got, rows) = a.join_onto(&b, Some(&names));
        prop_assert_eq!(shown(&got), shown(&reference::project(&joined, &names)));
        prop_assert_eq!(rows, joined.len());
    }
}
