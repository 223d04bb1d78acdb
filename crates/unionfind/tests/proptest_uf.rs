//! Property-based tests for the union-find suite, including concurrent
//! merger linearizability checks against arbitrary union scripts.

use proptest::prelude::*;

use ccl_unionfind::flatten::{flatten_generic, flatten_monotone};
use ccl_unionfind::par::{CasMerger, ConcurrentMerger, ConcurrentParents, LockedMerger};
use ccl_unionfind::testing::{canonical_partition, partition_of};
use ccl_unionfind::{HeEquivalence, MinUF, RankUF, RemSP, SizeUF, UnionFind};

fn arb_script() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2u32..64).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..96).prop_map(move |unions| (n, unions))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn remsp_monotone_invariant((n, unions) in arb_script()) {
        let mut uf = RemSP::with_capacity(n as usize);
        for _ in 0..n {
            uf.make_set();
        }
        for &(x, y) in &unions {
            uf.union(x, y);
            for (i, &p) in uf.parents().iter().enumerate() {
                prop_assert!(p as usize <= i, "p[{}] = {} after union({x},{y})", i, p);
            }
        }
    }

    #[test]
    fn count_sets_matches_partition((n, unions) in arb_script()) {
        let mut uf = RemSP::with_capacity(n as usize);
        for _ in 0..n {
            uf.make_set();
        }
        for &(x, y) in &unions {
            uf.union(x, y);
        }
        let partition = canonical_partition(&mut uf);
        let mut reps: Vec<u32> = partition.clone();
        reps.sort_unstable();
        reps.dedup();
        prop_assert_eq!(uf.count_sets(), reps.len());
    }

    #[test]
    fn flatten_generic_equals_monotone_on_rem_forests((n, unions) in arb_script()) {
        // skip element 0 (reserved background in the flatten contract)
        let unions: Vec<(u32, u32)> = unions
            .iter()
            .filter(|&&(x, y)| x != 0 && y != 0)
            .copied()
            .collect();
        let mut uf = RemSP::with_capacity(n as usize);
        for _ in 0..n {
            uf.make_set();
        }
        for &(x, y) in &unions {
            uf.union(x, y);
        }
        let mut a = uf.parents().to_vec();
        let mut b = uf.parents().to_vec();
        let ka = flatten_monotone(&mut a);
        let kb = flatten_generic(&mut b);
        prop_assert_eq!(ka, kb);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn all_variants_same_partition((n, unions) in arb_script()) {
        let reference = partition_of::<RemSP>(n, &unions);
        prop_assert_eq!(&partition_of::<RankUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<SizeUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<MinUF>(n, &unions), &reference);
        prop_assert_eq!(&partition_of::<HeEquivalence>(n, &unions), &reference);
    }

    #[test]
    fn concurrent_mergers_realize_requested_partition(
        (n, unions) in arb_script(),
        use_cas in proptest::bool::ANY,
        threads in 2usize..=6,
    ) {
        // labels 1..=n in the shared array (slot 0 = background)
        let parents = ConcurrentParents::from_parents((0..=n).collect());
        let shifted: Vec<(u32, u32)> =
            unions.iter().map(|&(x, y)| (x + 1, y + 1)).collect();
        let locked = LockedMerger::with_stripes(8);
        let cas = CasMerger::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let parents = &parents;
                let shifted = &shifted;
                let locked = &locked;
                let cas = &cas;
                s.spawn(move || {
                    // round-robin split of the script across threads
                    for (i, &(x, y)) in shifted.iter().enumerate() {
                        if i % threads == t {
                            if use_cas {
                                cas.merge(parents, x, y);
                            } else {
                                locked.merge(parents, x, y);
                            }
                        }
                    }
                });
            }
        });
        let parents = parents.into_parents();
        for (i, &p) in parents.iter().enumerate() {
            prop_assert!(p as usize <= i, "p[{}] = {} violates monotonicity", i, p);
        }
        // chase to roots and compare with the sequential partition
        let chase = |mut x: u32| {
            while parents[x as usize] != x {
                x = parents[x as usize];
            }
            x
        };
        let sequential = partition_of::<RemSP>(n, &unions);
        for x in 0..n {
            for y in 0..n {
                let same_par = chase(x + 1) == chase(y + 1);
                let same_seq = sequential[x as usize] == sequential[y as usize];
                prop_assert_eq!(
                    same_par, same_seq,
                    "pair ({}, {}) diverged (cas={})", x, y, use_cas
                );
            }
        }
    }
}
