//! Integration: the two-bag transportation witness (Lemma 2, Corollary 1).
//!
//! `consistency_witness_with` builds a witness from one northwest-corner
//! sweep per common-key group. These properties pin what the paper asks
//! of a witness, not the particular rows: it marginalizes back onto both
//! inputs, it exists exactly when Lemma 2's marginal test passes, it meets
//! Theorem 3's multiplicity bound and Theorem 5's support bound, it is
//! inclusion-minimal (Corollary 4), and it is identical at every thread
//! count. Multiplicities near `u64::MAX` show the `min`/subtract sweep
//! cannot overflow.

use bagcons::pairwise::{bags_consistent, consistency_witness_with, is_two_bag_witness};
use bagcons_core::{Attr, Bag, ExecConfig, Schema, Value};
use bagcons_flow::ConsistencyNetwork;
use bagcons_gen::consistent::planted_family;
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_hypergraph::{path, star};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts under test (1 is the sequential path).
const THREADS: [usize; 3] = [1, 2, 4];

fn schema(ids: &[u32]) -> Schema {
    Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
}

/// Shards even tiny inputs, so the multi-shard splice really runs.
fn exec(threads: usize) -> ExecConfig {
    ExecConfig::builder()
        .threads(threads)
        .min_parallel_support(1)
        .build()
        .unwrap()
}

/// The witness at every thread count, asserted identical in rows,
/// multiplicities and physical layout.
fn witness_at_all_threads(r: &Bag, s: &Bag) -> Option<Bag> {
    let base = consistency_witness_with(r, s, &exec(THREADS[0])).unwrap();
    for threads in &THREADS[1..] {
        let got = consistency_witness_with(r, s, &exec(*threads)).unwrap();
        assert_eq!(got, base, "threads={threads}");
        if let (Some(a), Some(b)) = (&got, &base) {
            assert!(a.is_sealed() && b.is_sealed(), "threads={threads}");
            assert!(a.iter().eq(b.iter()), "layout differs at threads={threads}");
        }
    }
    base
}

/// Corollary 4: with the network restricted to `t`'s support, banning
/// any one support row leaves no saturated flow.
fn assert_inclusion_minimal(t: &Bag, r: &Bag, s: &Bag) {
    for (banned, _) in t.iter() {
        let net = ConsistencyNetwork::build_excluding(r, s, |row: &[Value]| {
            row == banned || t.multiplicity(row) == 0
        })
        .unwrap();
        assert!(
            net.solve().is_none(),
            "support row {banned:?} is not needed"
        );
    }
}

/// Every property a transportation witness of `(r, s)` must have.
fn assert_witness_properties(t: &Bag, r: &Bag, s: &Bag) {
    assert!(is_two_bag_witness(t, r, s).unwrap(), "marginalizes back");
    // Theorem 3(1): no entry exceeds the inputs' largest multiplicity
    let mu = r.multiplicity_bound().max(s.multiplicity_bound());
    assert!(t.multiplicity_bound() <= mu, "Theorem 3 multiplicity bound");
    // Theorem 5: ‖T‖supp ≤ ‖R‖supp + ‖S‖supp
    assert!(
        t.support_size() <= r.support_size() + s.support_size(),
        "Theorem 5 support bound"
    );
    assert_inclusion_minimal(t, r, s);
}

/// A random bag over `schema` with values below `domain`.
fn arb_bag(schema: Schema, domain: u64) -> impl Strategy<Value = Bag> {
    let arity = schema.arity();
    proptest::collection::vec(
        (proptest::collection::vec(0..domain, arity), 1..=6u64),
        0..=10,
    )
    .prop_map(move |rows| {
        let mut bag = Bag::new(schema.clone());
        for (row, m) in rows {
            let vals: Vec<Value> = row.into_iter().map(Value::new).collect();
            bag.insert(vals, m).unwrap();
        }
        bag
    })
}

/// A planted family: path or star shape, size, domain, support and seed.
fn arb_family() -> impl Strategy<Value = Vec<Bag>> {
    (
        0..2usize,
        3..=5u32,
        2..=4u64,
        (1..=24usize, 1..=9u64, 0..1_000_000u64),
    )
        .prop_map(|(shape, n, domain, (support, max_mult, seed))| {
            let h = if shape == 0 { path(n) } else { star(n) };
            let mut rng = StdRng::seed_from_u64(seed);
            planted_family(&h, domain, support, max_mult, &mut rng)
                .unwrap()
                .0
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pair of a planted path or star family is consistent, and
    /// its transportation witness has every witness property.
    #[test]
    fn planted_family_pairs_get_minimal_witnesses(bags in arb_family()) {
        for i in 0..bags.len() {
            for j in (i + 1)..bags.len() {
                let t = witness_at_all_threads(&bags[i], &bags[j]).expect("planted pair");
                assert_witness_properties(&t, &bags[i], &bags[j]);
            }
        }
    }

    /// One bumped tuple breaks some pair of the family; the witness is
    /// `None` exactly on the pairs Lemma 2 rejects.
    #[test]
    fn perturbed_family_witness_matches_lemma2(bags in arb_family(), seed in 0..1_000_000u64) {
        let mut bags = bags;
        let mut rng = StdRng::seed_from_u64(seed);
        bump_one_tuple(&mut bags, &mut rng).unwrap();
        for i in 0..bags.len() {
            for j in (i + 1)..bags.len() {
                let consistent = bags_consistent(&bags[i], &bags[j]).unwrap();
                match witness_at_all_threads(&bags[i], &bags[j]) {
                    Some(t) => {
                        prop_assert!(consistent, "witness for an inconsistent pair");
                        assert_witness_properties(&t, &bags[i], &bags[j]);
                    }
                    None => prop_assert!(!consistent, "no witness for a consistent pair"),
                }
            }
        }
    }

    /// Unrelated random bags: mostly inconsistent, sometimes equal-total
    /// with mismatched groups, occasionally consistent.
    #[test]
    fn mismatched_pairs_get_none_exactly_when_inconsistent(
        r in arb_bag(schema(&[0, 1]), 3),
        s in arb_bag(schema(&[1, 2]), 3),
    ) {
        let consistent = bags_consistent(&r, &s).unwrap();
        let t = witness_at_all_threads(&r, &s);
        prop_assert_eq!(t.is_some(), consistent);
        if let Some(t) = t {
            assert_witness_properties(&t, &r, &s);
        }
    }

    /// Disjoint schemas form one key group holding every row: consistent
    /// iff the totals agree.
    #[test]
    fn disjoint_schemas_form_one_group(
        r in arb_bag(schema(&[0]), 4),
        s in arb_bag(schema(&[1]), 4),
    ) {
        let t = witness_at_all_threads(&r, &s);
        prop_assert_eq!(t.is_some(), r.unary_size() == s.unary_size());
        if let Some(t) = t {
            assert_witness_properties(&t, &r, &s);
        }
    }

    /// Multiplicities near `u64::MAX`: group totals within 1000 of the
    /// maximum, split unevenly on each side, so the sweep's `min` and
    /// subtractions run at the top of the range.
    #[test]
    fn near_max_multiplicities_do_not_overflow(
        gap in 0..1000u64,
        (a, b, c, d) in (1..500u64, 1..500u64, 1..500u64, 1..500u64),
    ) {
        let g = u64::MAX - gap;
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[0u64, 0][..], g - a - b), (&[1, 0][..], a), (&[2, 0][..], b), (&[0, 1][..], g)],
        )
        .unwrap();
        let s = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[0u64, 5][..], c), (&[0, 6][..], g - c - d), (&[0, 7][..], d), (&[1, 5][..], g)],
        )
        .unwrap();
        let t = witness_at_all_threads(&r, &s).expect("balanced groups");
        assert_witness_properties(&t, &r, &s);

        // Equal totals, but group B = 0 is one short and its missing
        // unit sits on a key R lacks: no witness.
        let s_bad = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[0u64, 5][..], g - 1), (&[1, 5][..], g), (&[2, 5][..], 1)],
        )
        .unwrap();
        prop_assert_eq!(r.unary_size(), s_bad.unary_size());
        prop_assert!(!bags_consistent(&r, &s_bad).unwrap());
        prop_assert!(witness_at_all_threads(&r, &s_bad).is_none());
    }
}

#[test]
fn empty_bags_have_the_empty_witness() {
    let r = Bag::new(schema(&[0, 1]));
    let s = Bag::new(schema(&[1, 2]));
    let t = witness_at_all_threads(&r, &s).expect("empty bags are consistent");
    assert!(t.is_empty());
    assert_eq!(t.schema(), &schema(&[0, 1, 2]));
}
