//! `ResultSet`'s set operations against the implementation they replaced.
//!
//! [`reference`] keeps the previous bodies of `union_all`, `union_delta`,
//! `project` and `join` — over rows of nodes, with a `FxHashSet` of cloned
//! rows rebuilt on every call — word for word. The operations over
//! dictionary ids, and `join_onto` against `join` then `project`, must
//! produce the same columns, the same rows **in the same order** (order
//! decides how an answer is cut into batches, hence `wire_size()` and every
//! byte counter downstream) and the same returned delta, whatever the
//! dictionaries hold: each input gets one of its own, in which a value may
//! sit under several ids, a NaN may be shared or not, and entries may be
//! unused. Outputs are compared through `{:?}` so that rows holding a NaN,
//! which no set operation ever merges, still compare.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqpeer_rdfs::{Literal, LiteralType, Node, Range, Resource, SchemaBuilder, Triple};
use sqpeer_rql::{compile, evaluate, ResultSet, UnionAcc};
use sqpeer_store::DescriptionBase;
use std::collections::HashSet;
use std::sync::Arc;

mod reference {
    use sqpeer_rdfs::{FxHashMap, FxHashSet, Node};

    /// A result as rows of nodes.
    #[derive(Debug, Clone)]
    pub struct Table {
        pub columns: Vec<String>,
        pub rows: Vec<Vec<Node>>,
    }

    type Row = Vec<Node>;

    impl Table {
        pub fn empty(columns: Vec<String>) -> Self {
            Table {
                columns,
                rows: Vec::new(),
            }
        }

        fn column_index(&self, name: &str) -> Option<usize> {
            self.columns.iter().position(|c| c == name)
        }
    }

    pub fn extend_distinct(this: &mut Table, rows: impl IntoIterator<Item = Row>) {
        let mut seen: FxHashSet<Row> = this.rows.iter().cloned().collect();
        for row in rows {
            if seen.insert(row.clone()) {
                this.rows.push(row);
            }
        }
    }

    pub fn union_all<'a>(this: &mut Table, parts: impl IntoIterator<Item = &'a Table>) {
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

    pub fn union_delta(this: &mut Table, other: &Table) -> Vec<Row> {
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

    pub fn project(this: &Table, names: &[String]) -> Table {
        let idx: Vec<usize> = names.iter().filter_map(|n| this.column_index(n)).collect();
        let mut out = Table::empty(idx.iter().map(|&i| this.columns[i].clone()).collect());
        extend_distinct(
            &mut out,
            this.rows
                .iter()
                .map(|row| idx.iter().map(|&i| row[i].clone()).collect::<Row>()),
        );
        out
    }

    pub fn join(this: &Table, other: &Table) -> Table {
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

        let mut out = Table::empty(columns);
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

use reference::Table;

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

fn table(rng: &mut StdRng, columns: Vec<String>, max_rows: usize) -> Table {
    let rows = (0..rng.gen_range(0..=max_rows))
        .map(|_| columns.iter().map(|_| cell(rng)).collect())
        .collect();
    Table { columns, rows }
}

/// `t` as a result set over a dictionary of its own: at any cell a value
/// (a NaN too) may take a fresh id or reuse one, and entries no row uses
/// are mixed in.
fn coded(rng: &mut StdRng, t: &Table) -> ResultSet {
    let (mut dict, mut ids): (Vec<Node>, Vec<u32>) = (Vec::new(), Vec::new());
    for node in t.rows.iter().flatten() {
        if rng.gen_bool(0.2) {
            dict.push(cell(rng));
        }
        let shown = format!("{node:?}");
        let reused = dict.iter().position(|d| format!("{d:?}") == shown);
        let id = match reused.filter(|_| rng.gen_bool(0.7)) {
            Some(id) => id,
            None => {
                dict.push(node.clone());
                dict.len() - 1
            }
        };
        ids.push(id as u32);
    }
    ResultSet::from_dict(t.columns.clone(), dict, ids, t.rows.len()).expect("ids in range")
}

fn shuffled(rng: &mut StdRng, mut names: Vec<String>) -> Vec<String> {
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    names
}

/// An accumulator over 0–3 columns, duplicates allowed.
fn accumulator(rng: &mut StdRng) -> Table {
    let names = ["X", "Y", "Z"].map(String::from);
    let columns = names[..rng.gen_range(0..=3)].to_vec();
    table(rng, columns, 10)
}

/// A part to union into `acc`: its columns permuted, sometimes one
/// missing (the part is then skipped) or one extra; duplicates within.
fn part_for(rng: &mut StdRng, acc: &Table) -> Table {
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
fn join_sides(rng: &mut StdRng) -> (Table, Table) {
    let names = ["X", "Y", "Z", "W", "V"].map(String::from);
    let side = |rng: &mut StdRng| {
        let columns = shuffled(rng, names.to_vec())[..rng.gen_range(0..=3)].to_vec();
        table(rng, columns, 12)
    };
    (side(rng), side(rng))
}

fn shown(set: &ResultSet) -> String {
    format!("{:?} {:?}", set.columns, set.rows)
}

fn expected(t: &Table) -> String {
    format!("{:?} {:?}", t.columns, t.rows)
}

proptest! {
    #[test]
    fn union_all_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let acc = accumulator(rng);
        let parts: Vec<Table> = (0..rng.gen_range(0..5)).map(|_| part_for(rng, &acc)).collect();

        let mut oracle = acc.clone();
        reference::union_all(&mut oracle, &parts);

        let acc = coded(rng, &acc);
        let parts: Vec<ResultSet> = parts.iter().map(|p| coded(rng, p)).collect();
        let mut all = acc.clone();
        all.union_all(&parts);
        prop_assert_eq!(shown(&all), expected(&oracle));

        // One at a time is the same fold.
        let mut one_by_one = acc;
        for part in &parts {
            one_by_one.union(part);
        }
        prop_assert_eq!(shown(&one_by_one), expected(&oracle));
    }

    #[test]
    fn union_delta_matches_reference_batch_after_batch(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let acc = accumulator(rng);
        let batches: Vec<Table> =
            (0..rng.gen_range(1..5)).map(|_| part_for(rng, &acc)).collect();

        let mut oracle = acc.clone();
        let mut one_shot = coded(rng, &acc);
        let mut kept = UnionAcc::new(coded(rng, &acc));
        for batch in &batches {
            let delta = format!("{:?}", reference::union_delta(&mut oracle, batch));
            let batch = coded(rng, batch);
            // An accumulator afresh per batch, over what the last one held.
            let mut fresh = UnionAcc::new(one_shot);
            prop_assert_eq!(format!("{:?}", fresh.union_delta(&batch)), delta.clone());
            one_shot = fresh.into_result();
            prop_assert_eq!(format!("{:?}", kept.union_delta(&batch)), delta);
            prop_assert_eq!(shown(&one_shot), expected(&oracle));
        }
        prop_assert_eq!(shown(&kept.into_result()), expected(&oracle));
    }

    /// `project` is defined on a result set proper — distinct rows, which
    /// is what lets a projection that keeps every column skip the dedup.
    #[test]
    fn project_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let drawn = accumulator(rng);
        let mut distinct = Table::empty(drawn.columns.clone());
        reference::extend_distinct(&mut distinct, drawn.rows);
        let set = coded(rng, &distinct);

        // A permutation, a subset, a repeated or an unknown name.
        let mut names = shuffled(rng, set.columns.to_vec());
        match rng.gen_range(0..5u8) {
            0 if !names.is_empty() => {
                names.pop();
            }
            1 if !names.is_empty() => names.push(names[0].clone()),
            2 => names.push("W".to_string()),
            _ => {}
        }

        let oracle = expected(&reference::project(&distinct, &names));
        prop_assert_eq!(shown(&set.project(&names)), oracle.clone());
        prop_assert_eq!(shown(&set.into_projection(&names)), oracle);
    }

    #[test]
    fn join_matches_reference(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = join_sides(rng);
        let oracle = expected(&reference::join(&a, &b));
        prop_assert_eq!(shown(&coded(rng, &a).join(&coded(rng, &b))), oracle);
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

        let (got, rows) = coded(rng, &a).join_onto(&coded(rng, &b), Some(&names));
        prop_assert_eq!(shown(&got), expected(&reference::project(&joined, &names)));
        prop_assert_eq!(rows, joined.rows.len());
    }

    /// A result cut into pieces and glued back is the result, row for row,
    /// whether the pieces share its dictionary or are slices with one of
    /// their own (just the entries they use); sorted and cut short, it is
    /// the node rows sorted and cut short.
    #[test]
    fn chunks_slices_append_sort_and_truncate_keep_the_rows(seed in any::<u64>(), n in 1..6usize) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let t = accumulator(rng);
        let set = coded(rng, &t);
        let (mut shared, mut sliced) = (set.rows.chunks(n), Vec::new());
        let mut glued = ResultSet::empty(set.columns.clone());
        for at in (0..set.len()).step_by(n) {
            let slice = set.rows.slice(at..set.len().min(at + n));
            let mut used = vec![false; slice.dict().len()];
            slice.ids().iter().for_each(|&id| used[id as usize] = true);
            prop_assert!(used.into_iter().all(|u| u), "an unused entry in a slice");
            let piece = shared.next().expect("a piece per slice");
            prop_assert_eq!(format!("{piece:?}"), format!("{slice:?}"));
            glued.rows.append(piece);
            sliced.push(slice);
        }
        prop_assert_eq!(shown(&glued), expected(&t));
        let mut glued = ResultSet::empty(set.columns.clone());
        sliced.into_iter().for_each(|slice| glued.rows.append(slice));
        prop_assert_eq!(shown(&glued), expected(&t));

        let by_shown = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            format!("{a:?}").cmp(&format!("{b:?}"))
        };
        let mut rows = t.rows.clone();
        rows.sort_by(|a, b| by_shown(a, b));
        rows.truncate(n);
        let mut sorted = set.clone();
        sorted.rows.sort_by(|a, b| by_shown(&a, &b));
        sorted.rows.truncate(n);
        prop_assert_eq!(format!("{:?}", sorted.rows), format!("{rows:?}"));
    }
}

/// `set`'s rows over a compact dictionary: each value once, in the order
/// the cells first use it, as an answer over a larger snapshot holds them.
fn compact(set: &ResultSet) -> ResultSet {
    let (mut dict, mut ids) = (Vec::new(), Vec::new());
    for node in set.rows.iter().flat_map(|row| row.iter()) {
        let at = dict.iter().position(|d| d == node).unwrap_or_else(|| {
            dict.push(node.clone());
            dict.len() - 1
        });
        ids.push(at as u32);
    }
    ResultSet::from_dict(set.columns.clone(), dict, ids, set.len()).expect("ids in range")
}

/// An answer of at most 16 cells over a snapshot of at most 16 nodes has
/// the snapshot's table for its dictionary — every node of the base,
/// those no row uses included — and the symbols for its ids. Union (into
/// it and from it, at once or as a delta), join and projection give what
/// they give on the same rows over a compact dictionary, whichever side
/// holds the table.
#[test]
fn shared_table_answers_set_operate_as_compact_ones() {
    let mut b = SchemaBuilder::new("n1", "http://example.org/n1#");
    let (c1, c2) = (b.class("C1").unwrap(), b.class("C2").unwrap());
    let p = b.property("p", c1, Range::Class(c2)).unwrap();
    let q = b.property("q", c2, Range::Literal(LiteralType::Integer));
    let (q, schema) = (q.unwrap(), Arc::new(b.finish().unwrap()));
    let mut base = DescriptionBase::new(Arc::clone(&schema));
    let r = |n: u32| Resource::new(format!("http://data/r{n}"));
    for (s, o) in [(1, 2), (1, 3), (4, 2), (5, 6)] {
        base.insert_described(Triple::new(r(s), p, r(o)));
    }
    for (s, v) in [(2, 7), (3, 7), (8, 9)] {
        base.insert_described(Triple::new(r(s), q, Literal::Integer(v)));
    }
    let table = base.snapshot().table();
    assert!(table.len() <= 16);
    let ask = |text: &str| evaluate(&compile(text, &schema).unwrap(), &base);
    let (xy, yv) = (
        ask("SELECT X, Y FROM {X}p{Y}"),
        ask("SELECT Y, V FROM {Y}q{V}"),
    );
    for lent in [&xy, &yv] {
        assert!(std::ptr::eq(lent.rows.dict(), &table[..]), "{lent:?}");
        let used: HashSet<&u32> = lent.rows.ids().iter().collect();
        assert!(used.len() < table.len(), "{lent:?} leaves entries unused");
    }

    let names = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let node = |n| Node::Resource(r(n));
    let other = vec![vec![node(2), node(1)], vec![node(9), node(8)]];
    let other = ResultSet::from_rows(names(&["Y", "X"]), other);
    let results = |xy: &ResultSet, yv: &ResultSet| {
        let (mut acc, mut into) = (xy.clone(), other.clone());
        acc.union(&other);
        into.union_all([xy, yv]);
        let delta = UnionAcc::new(other.clone()).union_delta(xy);
        let (joined, rows) = xy.join_onto(yv, Some(&names(&["X", "V"])));
        let projected = yv.clone().into_projection(&names(&["V", "Y"]));
        [
            shown(&acc),
            shown(&into),
            format!("{delta:?}"),
            shown(&xy.join(yv)),
            format!("{} {rows}", shown(&joined)),
            shown(&xy.project(&names(&["Y"]))),
            shown(&projected),
        ]
    };
    let expected = results(&compact(&xy), &compact(&yv));
    assert_eq!(results(&xy, &yv), expected);
    assert_eq!(results(&compact(&xy), &yv), expected);
    assert_eq!(results(&xy, &compact(&yv)), expected);
}
