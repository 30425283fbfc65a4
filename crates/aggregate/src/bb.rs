//! Exact aggregation by branch and bound: one prefix search shared by
//! the sum (Kemeny) and max (minmax) objectives.
//!
//! [`crate::exact::kemeny_optimal_full`] (Held–Karp) is exact but pays
//! `O(2ⁿ)` memory, capping out around `n = 18`. This module instead
//! grows full rankings prefix by prefix, depth-first. The objective is
//! a stack of pair-cost *layers*, `c_l(a, b)` = layer `l`'s cost of
//! ranking `a` strictly ahead of `b`, and the search minimizes the
//! maximum over layers of `Σ_{a ahead of b} c_l(a, b)`:
//!
//! * Kemeny ([`kemeny_optimal_bb`]) is one layer, the profile's ×2
//!   weights ([`ProfileTally::pair_cost_x2`]);
//! * minmax ([`crate::minmax::minmax_optimal_bb`]) is one layer per
//!   voter ([`MinMaxObjective::pair_cost_x2`](crate::MinMaxObjective::pair_cost_x2)).
//!
//! Each layer's lower bound is its cost on the fixed prefix plus
//! `Σ min(c_l(a, b), c_l(b, a))` over the pairs still unordered (for
//! one voter that minimum is 1 on a tied pair and 0 on a strict one).
//! A node dies when the max over layers of its bound reaches the
//! incumbent, and an optional [`ClassConstraints`] pruner drops
//! prefixes no feasible ranking extends. Both entry points warm-start
//! the incumbent with their objective's heuristic. On cohesive
//! profiles (the realistic regime) Kemeny solves `n = 25+` instances
//! in milliseconds; on adversarial profiles it degrades toward
//! exponential like any exact Kemeny solver (the problem is NP-hard).

use crate::error::check_inputs;
use crate::kwiksort::kwiksort_best_of;
use crate::local::local_kemenize_with_tally;
use crate::minmax::ClassConstraints;
use crate::tally::ProfileTally;
use crate::AggregateError;
use bucketrank_core::{BucketOrder, ElementId};

/// Hard cap on the domain size accepted (beyond this even well-pruned
/// searches can blow up).
pub const MAX_BB_N: usize = 40;

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbStats {
    /// Search nodes expanded.
    pub nodes: u64,
    /// Nodes pruned by the lower bound.
    pub pruned: u64,
}

/// Exact Kemeny (optimal **full ranking** under the `Kprof` objective)
/// by branch and bound. Returns `(optimum, cost_x2, stats)`.
///
/// # Errors
/// [`AggregateError::DomainTooLarge`] beyond [`MAX_BB_N`];
/// [`AggregateError::NoInputs`] / [`AggregateError::DomainMismatch`].
pub fn kemeny_optimal_bb(
    inputs: &[BucketOrder],
) -> Result<(BucketOrder, u64, BbStats), AggregateError> {
    let n = check_inputs(inputs)?;
    if n > MAX_BB_N {
        return Err(AggregateError::DomainTooLarge { n, max: MAX_BB_N });
    }
    if n == 0 {
        return Ok((
            BucketOrder::trivial(0),
            0,
            BbStats {
                nodes: 0,
                pruned: 0,
            },
        ));
    }
    let tally = ProfileTally::build(inputs)?;
    // Warm start: best of KwikSort restarts, locally Kemenized.
    let warm = local_kemenize_with_tally(&kwiksort_best_of(inputs, 0xBB, 8)?, &tally)?;
    let warm_cost = tally.kemeny_cost_x2(&warm)?;
    Ok(branch_and_bound(
        n,
        1,
        |_, a, b| tally.pair_cost_x2(a, b),
        None,
        warm.as_permutation().expect("local_kemenize emits full"),
        warm_cost,
    ))
}

/// The shared search: the full ranking minimizing the max over
/// `layers` of `Σ_{a ahead of b} pair_cost(l, a, b)`, among those
/// `constraints` admit. `warm` (of cost `warm_cost`) is the incumbent
/// to beat, and is returned when nothing beats it.
pub(crate) fn branch_and_bound(
    n: usize,
    layers: usize,
    pair_cost: impl Fn(usize, ElementId, ElementId) -> u32,
    constraints: Option<&ClassConstraints>,
    warm: Vec<ElementId>,
    warm_cost: u64,
) -> (BucketOrder, u64, BbStats) {
    // Fixing `a` ahead of `b` moves layer l's bound up by the excess
    // c_l(a, b) − min(c_l(a, b), c_l(b, a)); the root bound is the sum
    // of the pair minima.
    let mut excess = vec![0u32; layers * n * n];
    let mut bounds = vec![0u64; (n * n + 1) * layers];
    let root = n * n * layers;
    for l in 0..layers {
        for a in 0..n {
            for b in a + 1..n {
                let ab = pair_cost(l, a as ElementId, b as ElementId);
                let ba = pair_cost(l, b as ElementId, a as ElementId);
                let lo = ab.min(ba);
                excess[(l * n + a) * n + b] = ab - lo;
                excess[(l * n + b) * n + a] = ba - lo;
                bounds[root + l] += u64::from(lo);
            }
        }
    }
    let mut search = Search {
        n,
        layers,
        excess,
        constraints,
        free: vec![1; n],
        placed: vec![0; constraints.map_or(0, ClassConstraints::class_count)],
        prefix: Vec::with_capacity(n),
        bounds,
        cands: vec![(0, 0); n * n],
        best_perm: warm,
        best_cost: warm_cost,
        stats: BbStats {
            nodes: 0,
            pruned: 0,
        },
    };
    search.dfs(0, root);
    let order = BucketOrder::from_permutation(&search.best_perm).expect("permutation preserved");
    (order, search.best_cost, search.stats)
}

struct Search<'a> {
    n: usize,
    layers: usize,
    /// Row-major `layers × n × n` bound increments; see
    /// [`branch_and_bound`].
    excess: Vec<u32>,
    constraints: Option<&'a ClassConstraints>,
    /// 1 for a candidate not yet in the prefix, 0 once placed: a mask
    /// that keeps the increment sums branchless.
    free: Vec<u32>,
    /// Per-class prefix counts (empty when unconstrained).
    placed: Vec<u32>,
    prefix: Vec<ElementId>,
    /// Per-layer bounds, `layers` cells per node. A node at depth `d`
    /// writes child `e`'s bounds at `(d·n + e)·layers`; the root's sit
    /// at `n²·layers`. A child reads its bounds where its parent left
    /// them, so backtracking restores nothing.
    bounds: Vec<u64>,
    /// Per-depth candidate lists `(bound, element)`, `n` cells each.
    cands: Vec<(u64, ElementId)>,
    best_perm: Vec<ElementId>,
    best_cost: u64,
    stats: BbStats,
}

impl Search<'_> {
    /// Expands the node whose per-layer bounds start at `at`.
    fn dfs(&mut self, depth: usize, at: usize) {
        self.stats.nodes += 1;
        let (n, layers) = (self.n, self.layers);
        if depth == n {
            // Every pair is ordered: the bound is the exact cost.
            let total = self.bounds[at..at + layers].iter().copied().max().unwrap_or(0);
            if total < self.best_cost {
                self.best_cost = total;
                self.best_perm.clone_from(&self.prefix);
            }
            return;
        }
        // Score every admissible next element; placing e fixes e ahead
        // of every other free element.
        let list = depth * n;
        let mut count = 0;
        for e in 0..n {
            if self.free[e] == 0 {
                continue;
            }
            if let Some(cc) = self.constraints {
                if !cc.admits(&self.placed, e, depth) {
                    self.stats.pruned += 1;
                    continue;
                }
            }
            let child = (list + e) * layers;
            let mut bound = 0u64;
            for l in 0..layers {
                let row = &self.excess[(l * n + e) * n..(l * n + e + 1) * n];
                let inc: u64 = row
                    .iter()
                    .zip(&self.free)
                    .map(|(&x, &f)| u64::from(x * f))
                    .sum();
                let b = self.bounds[at + l] + inc;
                self.bounds[child + l] = b;
                bound = bound.max(b);
            }
            if bound >= self.best_cost {
                self.stats.pruned += 1;
                continue;
            }
            self.cands[list + count] = (bound, e as ElementId);
            count += 1;
        }
        // Cheapest bound first: good rankings found early tighten the
        // incumbent for the rest.
        self.cands[list..list + count].sort_unstable();
        for i in 0..count {
            let (bound, e) = self.cands[list + i];
            // The incumbent may have improved since scoring; the list
            // is sorted, so every later candidate dies too.
            if bound >= self.best_cost {
                self.stats.pruned += (count - i) as u64;
                break;
            }
            let e = e as usize;
            self.free[e] = 0;
            self.prefix.push(e as ElementId);
            if let Some(cc) = self.constraints {
                self.placed[cc.class_index(e)] += 1;
            }
            self.dfs(depth + 1, (list + e) * layers);
            if let Some(cc) = self.constraints {
                self.placed[cc.class_index(e)] -= 1;
            }
            self.prefix.pop();
            self.free[e] = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{total_cost_x2, AggMetric};
    use crate::exact::kemeny_optimal_full;
    use bucketrank_core::BucketOrder;

    fn lcg_profile(seed: u64, n: usize, m: usize, levels: u64) -> Vec<BucketOrder> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move |md: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % md
        };
        (0..m)
            .map(|_| {
                let ks: Vec<i64> = (0..n).map(|_| next(levels) as i64).collect();
                BucketOrder::from_keys(&ks)
            })
            .collect()
    }

    #[test]
    fn matches_held_karp_on_random_profiles() {
        for seed in 0..15u64 {
            let n = 4 + (seed % 6) as usize; // 4..=9
            let inputs = lcg_profile(seed, n, 5, 4);
            let (_, hk_cost) = kemeny_optimal_full(&inputs).unwrap();
            let (order, bb_cost, _) = kemeny_optimal_bb(&inputs).unwrap();
            assert_eq!(bb_cost, hk_cost, "seed {seed}");
            assert_eq!(
                total_cost_x2(AggMetric::KProf, &order, &inputs).unwrap(),
                bb_cost
            );
        }
    }

    #[test]
    fn scales_past_held_karp_on_cohesive_profiles() {
        // n = 24 with strongly correlated voters: pruning keeps this tiny.
        let reference: Vec<u32> = (0..24).collect();
        let mut inputs = Vec::new();
        for shift in 0..5usize {
            let mut perm = reference.clone();
            // A couple of local swaps per voter.
            perm.swap(shift, shift + 1);
            perm.swap(shift + 10, shift + 11);
            inputs.push(BucketOrder::from_permutation(&perm).unwrap());
        }
        let (order, cost, stats) = kemeny_optimal_bb(&inputs).unwrap();
        assert!(order.is_full());
        // Sanity: the reference itself is a candidate; optimum can't cost
        // more than the reference's cost.
        let ref_cost = total_cost_x2(
            AggMetric::KProf,
            &BucketOrder::from_permutation(&reference).unwrap(),
            &inputs,
        )
        .unwrap();
        assert!(cost <= ref_cost);
        assert!(stats.nodes < 2_000_000, "nodes = {}", stats.nodes);
    }

    #[test]
    fn warm_start_already_optimal_terminates_fast() {
        let s = BucketOrder::from_permutation(&[3, 1, 0, 2]).unwrap();
        let inputs = vec![s.clone(); 4];
        let (order, cost, _) = kemeny_optimal_bb(&inputs).unwrap();
        assert_eq!(order, s);
        assert_eq!(cost, 0);
    }

    #[test]
    fn errors() {
        assert!(kemeny_optimal_bb(&[]).is_err());
        let huge = BucketOrder::trivial(MAX_BB_N + 1);
        assert!(matches!(
            kemeny_optimal_bb(std::slice::from_ref(&huge)),
            Err(AggregateError::DomainTooLarge { .. })
        ));
        let empty = BucketOrder::trivial(0);
        let (o, c, _) = kemeny_optimal_bb(std::slice::from_ref(&empty)).unwrap();
        assert!(o.is_empty());
        assert_eq!(c, 0);
    }
}
