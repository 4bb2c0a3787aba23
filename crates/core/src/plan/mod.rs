//! The query frontend and predicate evaluation orders (PEOs).
//!
//! [`logical`] holds the [`LogicalPlan`] builder layer ([`PlanBuilder`]:
//! typed scan/filter/join/aggregate nodes over arbitrary boolean
//! predicate expressions) and [`passes`] the static optimizer passes that
//! rewrite a logical plan before it is lowered to the compiled stage form
//! (`crate::exec::program`). The **PEO** — the order in which the lowered
//! stages are wired into the short-circuit loop — is the runtime degree
//! of freedom the progressive optimizer adjusts (Section 2.1).

pub mod logical;
pub mod passes;

pub use logical::{Expr, LogicalNode, LogicalPlan, PlanBuilder};
pub use passes::PassRegistry;

/// A predicate evaluation order: a permutation of stage indices.
pub type Peo = Vec<usize>;

/// Whether `order` is a permutation of `0..stages` — the one validity
/// rule every order-bearing structure shares (compiled programs, the
/// serving layer's order cache).
pub fn is_valid_peo(order: &[usize], stages: usize) -> bool {
    let mut seen = vec![false; stages];
    order.len() == stages
        && order
            .iter()
            .all(|&i| i < stages && !std::mem::replace(&mut seen[i], true))
}

/// All `stages!` orders of `0..stages` in lexicographic order (the 120
/// permutations of Figures 11/13 for Q6's five predicates). Guarded
/// against blowups.
pub fn all_orders(stages: usize) -> Vec<Peo> {
    assert!(stages <= 8, "refusing to enumerate more than 8! orders");
    let mut result = Vec::new();
    let mut current: Peo = (0..stages).collect();
    permutations(&mut current, 0, &mut result);
    result.sort();
    result
}

fn permutations(current: &mut Vec<usize>, k: usize, out: &mut Vec<Peo>) {
    if k == current.len() {
        out.push(current.clone());
        return;
    }
    for i in k..current.len() {
        current.swap(k, i);
        permutations(current, k + 1, out);
        current.swap(k, i);
    }
}

/// Order stage indices by the classic rank `cost / (1 − selectivity)`,
/// ascending — the optimal order for independent filters with differing
/// per-tuple costs. With equal costs this degenerates to ascending
/// selectivity (the Section 4.4 rule: most selective first); with an
/// LLC-thrashing join probe in the mix
/// it is what keeps a cheap selection in front of an expensive probe even
/// when the probe is the more selective stage (Sections 5.5–5.6).
///
/// `costs` and `selectivities` are given in the order of `current_order`;
/// a stage with selectivity ≥ 1 or NaN filters nothing and sorts last
/// (by cost, then plan index).
pub fn order_by_cost_per_tuple(
    current_order: &[usize],
    costs: &[f64],
    selectivities: &[f64],
) -> Peo {
    assert_eq!(current_order.len(), costs.len());
    assert_eq!(current_order.len(), selectivities.len());
    let mut entries: Vec<(f64, f64, usize)> = current_order
        .iter()
        .enumerate()
        .map(|(j, &idx)| {
            let s = selectivities[j];
            let c = costs[j].max(0.0);
            let rank = if s.is_nan() || s >= 1.0 {
                f64::INFINITY
            } else {
                c / (1.0 - s.max(0.0))
            };
            (rank, c, idx)
        })
        .collect();
    entries.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("ranks are not NaN")
            .then(a.1.partial_cmp(&b.1).expect("costs are not NaN"))
            .then(a.2.cmp(&b.2))
    });
    entries.into_iter().map(|(_, _, idx)| idx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_validation() {
        assert!(is_valid_peo(&[0, 1, 2], 3));
        assert!(is_valid_peo(&[2, 0, 1], 3));
        assert!(!is_valid_peo(&[0, 1], 3));
        assert!(!is_valid_peo(&[0, 1, 1], 3));
        assert!(!is_valid_peo(&[0, 1, 3], 3));
    }

    #[test]
    fn all_orders_counts_factorial() {
        assert_eq!(all_orders(1).len(), 1);
        assert_eq!(all_orders(3).len(), 6);
        assert_eq!(all_orders(5).len(), 120);
    }

    #[test]
    fn all_orders_are_distinct_sorted_permutations() {
        let orders = all_orders(4);
        assert_eq!(orders.len(), 24);
        assert!(orders.iter().all(|o| is_valid_peo(o, 4)));
        assert!(orders.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(orders[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn equal_costs_order_by_ascending_selectivity() {
        // Stage 2 has sel 0.9, stage 0 has 0.1, stage 1 has 0.5.
        let order = order_by_cost_per_tuple(&[2, 0, 1], &[3.0; 3], &[0.9, 0.1, 0.5]);
        assert_eq!(order, vec![0, 1, 2]);
        // Ties break by plan index.
        let order = order_by_cost_per_tuple(&[3, 1, 2, 0], &[1.0; 4], &[0.5; 4]);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn expensive_selective_stage_ranks_behind_cheap_one() {
        // Stage 0: cost 100, sel 0.5 -> rank 200. Stage 1: cost 2,
        // sel 0.9 -> rank 20. The cheap-but-unselective stage goes first.
        let peo = vec![0usize, 1];
        assert_eq!(
            order_by_cost_per_tuple(&peo, &[100.0, 2.0], &[0.5, 0.9]),
            vec![1, 0]
        );
    }

    #[test]
    fn non_filtering_stage_goes_last() {
        let peo = vec![0usize, 1, 2];
        let order = order_by_cost_per_tuple(&peo, &[1.0, 5.0, 1.0], &[1.0, 0.5, 0.5]);
        assert_eq!(*order.last().unwrap(), 0);
        // Two non-filtering stages tie-break by cost, then plan index.
        let order = order_by_cost_per_tuple(&peo, &[1.0, 5.0, 1.0], &[1.0, 1.0, 0.5]);
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn nan_selectivity_filters_nothing_and_goes_last() {
        assert_eq!(
            order_by_cost_per_tuple(&[0, 1], &[1.0, 2.0], &[f64::NAN, 0.5]),
            vec![1, 0]
        );
    }
}
