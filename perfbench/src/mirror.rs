//! The client-side mirror of acknowledged state, and the expected
//! reply to any read computed from it in-process.
//!
//! A client applies an edit to its mirror only once the server has
//! acknowledged it, in reply order — which, with one connection per
//! client and disjoint sessions, is the order the server applied them.
//! Expected replies come from a [`DynamicProfile`] rebuilt from the
//! mirrored voters and from the same public kernels the service calls.

use bucketrank_aggregate::minmax::{minmax_aggregate, DEFAULT_SEED};
use bucketrank_aggregate::{DynamicProfile, MedianPolicy};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::prepared::{
    fhaus_x2_prepared, fprof_x2_prepared, khaus_x2_prepared, kprof_x2_prepared, PreparedRanking,
};
use bucketrank_metrics::weighted::{top_diff_prepared, weighted_footrule_x2_prepared};
use bucketrank_metrics::Weights;
use bucketrank_server::{MetricKind, Request, Response};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One session as the client knows it.
#[derive(Debug, Clone)]
pub struct SessionMirror {
    /// Domain size.
    pub n: usize,
    /// Live voters by id.
    pub voters: BTreeMap<u64, Arc<BucketOrder>>,
    /// The id the next push will be issued.
    pub next_id: u64,
}

/// A client's sessions by name.
pub type Mirror = HashMap<String, SessionMirror>;

/// Applies an acknowledged lifecycle op or edit to the mirror.
/// Returns a description of the mismatch when the acknowledgement is
/// not the one the mirror predicts.
pub fn apply_ack(mirror: &mut Mirror, req: &Request, resp: &Response) -> Result<(), String> {
    let fail = || Err(format!("{req:?} answered {resp:?}"));
    match (req, resp) {
        (Request::CreateSession { name, n, .. }, Response::SessionCreated) => {
            let fresh = SessionMirror {
                n: *n as usize,
                voters: BTreeMap::new(),
                next_id: 0,
            };
            if mirror.insert(name.clone(), fresh).is_some() {
                return fail();
            }
        }
        (Request::PushVoter { session, ranking }, Response::VoterPushed { voter }) => {
            let Some(sm) = mirror.get_mut(session) else {
                return fail();
            };
            if *voter != sm.next_id {
                return fail();
            }
            sm.voters.insert(*voter, Arc::new(ranking.clone()));
            sm.next_id += 1;
        }
        (
            Request::ReplaceVoter {
                session,
                voter,
                ranking,
            },
            Response::VoterReplaced,
        ) => match mirror
            .get_mut(session)
            .and_then(|sm| sm.voters.get_mut(voter))
        {
            Some(slot) => *slot = Arc::new(ranking.clone()),
            None => return fail(),
        },
        (Request::RemoveVoter { session, voter }, Response::VoterRemoved) => {
            if mirror
                .get_mut(session)
                .and_then(|sm| sm.voters.remove(voter))
                .is_none()
            {
                return fail();
            }
        }
        _ => return fail(),
    }
    Ok(())
}

/// A session's state frozen at one point, for checking a reply later.
#[derive(Debug, Clone)]
pub struct View {
    n: usize,
    voters: Vec<(u64, Arc<BucketOrder>)>,
    next_id: u64,
}

impl SessionMirror {
    /// The current state, sharing the rankings.
    pub fn view(&self) -> View {
        View {
            n: self.n,
            voters: self
                .voters
                .iter()
                .map(|(id, r)| (*id, Arc::clone(r)))
                .collect(),
            next_id: self.next_id,
        }
    }
}

impl View {
    fn voter(&self, id: u64) -> Result<&BucketOrder, String> {
        self.voters
            .iter()
            .find(|(v, _)| *v == id)
            .map(|(_, r)| r.as_ref())
            .ok_or_else(|| format!("mirror has no voter {id}"))
    }

    fn profile(&self) -> Result<DynamicProfile, String> {
        let voters = self
            .voters
            .iter()
            .map(|(id, r)| (*id, BucketOrder::clone(r)));
        DynamicProfile::from_voters(self.n, MedianPolicy::Lower, voters, self.next_id)
            .map_err(|e| e.to_string())
    }

    /// The reply a correct server gives to the read `req` in this state.
    pub fn expected(&self, req: &Request) -> Result<Response, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let pair = |a: u64, b: u64| -> Result<(&BucketOrder, &BucketOrder), String> {
            Ok((self.voter(a)?, self.voter(b)?))
        };
        Ok(match req {
            Request::MedianOrder { .. } => Response::Ranking {
                order: self
                    .profile()?
                    .snapshot()
                    .map_err(|e| err(&e))?
                    .median_order(),
            },
            Request::TopK { k, .. } => Response::Ranking {
                order: self
                    .profile()?
                    .snapshot()
                    .map_err(|e| err(&e))?
                    .top_k(*k as usize)
                    .map_err(|e| err(&e))?,
            },
            Request::KemenyCost { candidate, .. } => Response::CostX2 {
                value: self
                    .profile()?
                    .tally()
                    .kemeny_cost_x2(candidate)
                    .map_err(|e| err(&e))?,
            },
            Request::PairMetric {
                metric,
                voter_a,
                voter_b,
                ..
            } => {
                let (a, b) = pair(*voter_a, *voter_b)?;
                let (pa, pb) = (PreparedRanking::new(a), PreparedRanking::new(b));
                let value = match metric {
                    MetricKind::KprofX2 => kprof_x2_prepared(&pa, &pb),
                    MetricKind::FprofX2 => fprof_x2_prepared(&pa, &pb),
                    MetricKind::KhausX2 => khaus_x2_prepared(&pa, &pb),
                    MetricKind::FhausX2 => fhaus_x2_prepared(&pa, &pb),
                };
                Response::CostX2 {
                    value: value.map_err(|e| err(&e))?,
                }
            }
            Request::WeightedDist {
                voter_a,
                voter_b,
                weights,
                ..
            }
            | Request::TopDiff {
                voter_a,
                voter_b,
                weights,
                ..
            } => {
                let (a, b) = pair(*voter_a, *voter_b)?;
                let (pa, pb) = (PreparedRanking::new(a), PreparedRanking::new(b));
                let w = Weights::from_units(weights.clone()).map_err(|e| err(&e))?;
                let value = if matches!(req, Request::TopDiff { .. }) {
                    top_diff_prepared(&pa, &pb, &w)
                } else {
                    weighted_footrule_x2_prepared(&pa, &pb, &w)
                };
                Response::CostX2 {
                    value: value.map_err(|e| err(&e))?,
                }
            }
            Request::MinMaxAgg { .. } => {
                let rankings: Vec<BucketOrder> = self
                    .voters
                    .iter()
                    .map(|(_, r)| BucketOrder::clone(r))
                    .collect();
                let (order, cost_x2) =
                    minmax_aggregate(&rankings, None, DEFAULT_SEED).map_err(|e| err(&e))?;
                Response::RankingCost { order, cost_x2 }
            }
            other => return Err(format!("{other:?} is not a read")),
        })
    }

    /// Checks a received reply against [`View::expected`].
    pub fn check(&self, req: &Request, got: &Response) -> Result<(), String> {
        let want = self.expected(req)?;
        if &want == got {
            Ok(())
        } else {
            Err(format!("{req:?}: got {got:?}, expected {want:?}"))
        }
    }
}
