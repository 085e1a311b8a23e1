//! Pins the deterministic experiment reports byte for byte, and the
//! registry they are looked up in.
//!
//! `fig3`–`fig7` and `e8`–`e15` run on the virtual clock only, so their
//! reports repeat exactly; each is compared with `tests/golden/<id>.txt`.
//! (`fig1`/`fig2` print µs cells and `e16`–`e23` wall clocks — those are
//! gated through `BENCH_*.json` and the `trend` binary instead.) A change
//! that moves a report on purpose re-blesses it with
//! `BLESS=1 cargo test -p sqpeer-bench --test reports` and reviews the diff.

use sqpeer_bench::{find, EXPERIMENTS};

fn golden(id: &str) {
    let actual = find(id)
        .unwrap_or_else(|| panic!("`{id}` is not registered"))
        .run();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        actual, expected,
        "report `{id}` diverged from tests/golden/{id}.txt; if intended, re-bless with \
         `BLESS=1 cargo test -p sqpeer-bench --test reports` and review the diff"
    );
}

macro_rules! goldens {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            golden(stringify!($id));
        }
    )*};
}

goldens!(fig3 fig4 fig5 fig6 fig7 e8 e9 e10 e11 e12 e13 e14 e15);

/// What `--list`, `all` and lookup read is one table: ids are unique,
/// every listed id resolves to its own row, and the order is the paper's.
#[test]
fn registry_ids_are_unique_and_resolve_in_list_order() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate experiment id");
    for (row, id) in EXPERIMENTS.iter().zip(&ids) {
        assert!(std::ptr::eq(find(id).expect("listed id resolves"), row));
        assert!(!row.about.is_empty());
    }
    assert!(find("e24").is_none());
    let paper_order: Vec<String> = (1..=7)
        .map(|n| format!("fig{n}"))
        .chain((8..=23).map(|n| format!("e{n}")))
        .collect();
    assert_eq!(ids, paper_order);
}
