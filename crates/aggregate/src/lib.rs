//! Rank aggregation for partial rankings (Section 6 of Fagin, Kumar,
//! Mahdian, Sivakumar, Vee, PODS 2004), plus exact optima and classical
//! baselines for evaluating it.
//!
//! The centerpiece is **median-rank aggregation**: take the per-element
//! median `f` of the input partial rankings' positions (Lemma 8 — the
//! median minimizes `Σ L1`), then shape `f` into the desired output:
//!
//! * [`median::aggregate_top_k`] — a top-k list within factor **3** of the
//!   optimal top-k list under `Fprof` (Theorem 9);
//! * [`median::aggregate_full`] — a full ranking; when the inputs are full
//!   rankings this is within factor **2** of *any* aggregation
//!   (Theorem 11), answering an open question of earlier work;
//! * [`dp::optimal_bucketing`] — the `O(n²)` dynamic program of Appendix
//!   A.6.4 (the paper's Figure 1) that turns `f` into the partial ranking
//!   `f†` minimizing `L1(f†, f)`, giving a factor-**2**/**3** approximation
//!   against all partial rankings (Theorem 10);
//! * [`median::aggregate_to_type`] — output of any fixed type
//!   (Corollary 30), with the strong-optimality guarantee of Theorem 35.
//!
//! By the metric equivalences (Theorem 7), an approximation factor under
//! `Fprof` transfers, with constant blow-up, to `Kprof`, `KHaus`, `FHaus`.
//!
//! For evaluation, the crate also ships exact optima
//! ([`exact::optimal_partial_ranking`] by enumeration,
//! [`exact::kemeny_optimal_full`] by Held–Karp, [`bb::kemeny_optimal_bb`]
//! by the branch and bound that also solves the max objective
//! ([`minmax::minmax_optimal_bb`]),
//! [`exact::footrule_optimal_full`] by min-cost perfect matching — the
//! paper's footnote 4) and the classical heuristics the paper positions
//! itself against ([`borda`], the Markov-chain methods [`markov`], and
//! local Kemenization [`local`]).
//!
//! # Example
//!
//! ```
//! use bucketrank_core::BucketOrder;
//! use bucketrank_aggregate::{cost, exact, median, MedianPolicy};
//!
//! // Three voters rank four dishes, with ties.
//! let v1 = BucketOrder::from_keys(&[1, 1, 2, 3]);
//! let v2 = BucketOrder::from_keys(&[1, 2, 2, 3]);
//! let v3 = BucketOrder::from_keys(&[2, 1, 3, 3]);
//! let inputs = [v1, v2, v3];
//!
//! let top2 = median::aggregate_top_k(&inputs, 2, MedianPolicy::Lower).unwrap();
//! assert_eq!(top2.top_k_len(), Some(2));
//!
//! // Theorem 9: within 3× of the best top-2 list under the Fprof objective.
//! let c = cost::total_cost_x2(cost::AggMetric::FProf, &top2, &inputs).unwrap();
//! let alpha = bucketrank_core::TypeSeq::top_k(4, 2).unwrap();
//! let (_, opt) = exact::optimal_of_type(&inputs, &alpha, cost::AggMetric::FProf).unwrap();
//! assert!(c <= 3 * opt);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bb;
pub mod borda;
pub mod cluster;
pub mod condorcet;
pub mod cost;
pub mod dp;
pub mod dynamic;
mod error;
pub mod exact;
pub mod hungarian;
pub mod kwiksort;
pub mod local;
pub mod markov;
pub mod median;
pub mod minmax;
pub mod schulze;
pub mod tally;
pub mod topk;
pub mod strong;

pub use dynamic::{DynamicProfile, DynamicSnapshot, VoterId};
pub use error::AggregateError;
pub use median::MedianPolicy;
pub use minmax::{ClassConstraints, MinMaxObjective, WindowRule};
pub use tally::ProfileTally;
