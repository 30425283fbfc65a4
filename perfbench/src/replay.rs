//! The traced replay: the op stream a traced window sent, fed again
//! through each layer's public functions, one op at a time.
//!
//! For every frame the wire round trip measured by the client becomes
//! a `server.roundtrip` span. The frame is encoded and decoded with
//! [`proto`] (`proto.*` spans), each op runs through an in-process
//! [`Service`] configured like the served one (`service.handle`,
//! attributed to the round trip), and a shadow engine — one
//! [`DynamicProfile`] per session plus a bench-owned WAL file — repeats
//! the engine, kernel and WAL calls the service makes for that op
//! (attributed to the `service.handle`). Self times then split each
//! op's time between transport, service bookkeeping and the calls
//! below it. Every reply of the replay is also checked against the
//! served reply's hash and the shadow's own result.

use bucketrank_aggregate::dynamic::{DynamicSnapshot, VoterId};
use bucketrank_aggregate::minmax::{minmax_aggregate, DEFAULT_SEED};
use bucketrank_aggregate::{DynamicProfile, MedianPolicy};
use bucketrank_core::BucketOrder;
use bucketrank_metrics::prepared::{
    fhaus_x2_prepared, fprof_x2_prepared, khaus_x2_prepared, kprof_x2_prepared, PreparedRanking,
};
use bucketrank_metrics::weighted::{top_diff_prepared, weighted_footrule_x2_prepared};
use bucketrank_metrics::Weights;
use bucketrank_server::proto::{
    decode_batch, decode_batch_reply, encode_batch, encode_batch_reply,
};
use bucketrank_server::wal::{WalOp, WalRecord, WalWriter};
use bucketrank_server::{
    MetricKind, Request, Response, Service, ServiceConfig, WirePolicy, DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_SHARDS,
};
use std::collections::HashMap;
use std::path::Path;

use crate::drive::{body_hash, clear_dir, Clock, Frame};
use crate::trace::Trace;
use crate::workload::Spec;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Every span.
    pub trace: Trace,
    /// Replies that differ from the served ones or from the shadow.
    pub mismatches: Vec<String>,
    /// Ops the service answered with an error or `Busy`.
    pub service_errors: u64,
    /// Per frame, request + reply encode time per op, ns.
    pub encode_ns_per_op: Vec<f64>,
    /// Per frame, request + reply decode time per op, ns.
    pub decode_ns_per_op: Vec<f64>,
    /// Request and reply frame bytes.
    pub wire_bytes: u64,
    /// Ops replayed under the trace.
    pub ops: u64,
    /// Bytes the shadow WAL appended.
    pub wal_bytes: u64,
    /// Request bytes of the edits it logged.
    pub wal_user_bytes: u64,
}

fn timed<T>(clock: Clock, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = clock.now();
    let out = std::hint::black_box(f());
    (out, clock.now() - t0)
}

struct ShadowSession {
    dp: DynamicProfile,
    snap: Option<DynamicSnapshot>,
}

/// The engine, kernel and WAL calls the service makes, repeated on the
/// benchmark's own state.
struct Shadow {
    sessions: HashMap<String, ShadowSession>,
    wal: Option<WalWriter>,
    seq: u64,
    wal_bytes: u64,
    wal_user_bytes: u64,
}

/// Where a shadow call's span goes: the trace and the `service.handle`
/// it is attributed to. `None` replays untimed (set-up).
type Sink<'a> = Option<(&'a mut Trace, u32, u64)>;

fn span(sink: &mut Sink<'_>, name: &'static str, ns: u64) {
    if let Some((trace, parent, op)) = sink {
        trace.child_at(name, *op, *parent, ns);
    }
}

impl Shadow {
    fn log(
        &mut self,
        clock: Clock,
        sink: &mut Sink<'_>,
        req: &Request,
        op: WalOp,
    ) -> Result<(), String> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        self.seq += 1;
        let rec = WalRecord { seq: self.seq, op };
        let (bytes, ns) = timed(clock, || wal.append(&rec));
        self.wal_bytes += bytes.map_err(|e| format!("shadow wal: {e}"))?;
        self.wal_user_bytes += req.encode().len() as u64;
        span(sink, "wal.append", ns);
        Ok(())
    }

    /// Repeats `req`'s layer calls; `resp` is the service's reply.
    fn run(
        &mut self,
        clock: Clock,
        mut sink: Sink<'_>,
        req: &Request,
        resp: &Response,
    ) -> Result<(), String> {
        if matches!(resp, Response::Error { .. } | Response::Busy) {
            return Ok(());
        }
        let mismatch = |want: Response| -> Result<(), String> {
            if &want == resp {
                Ok(())
            } else {
                Err(format!("shadow {req:?}: service {resp:?}, shadow {want:?}"))
            }
        };
        if let Request::CreateSession { name, n, policy } = req {
            let session = ShadowSession {
                dp: DynamicProfile::new(*n as usize, MedianPolicy::Lower),
                snap: None,
            };
            debug_assert_eq!(*policy, WirePolicy::Lower);
            self.sessions.insert(name.clone(), session);
            let op = WalOp::Create {
                name: name.clone(),
                n: *n,
                policy: *policy,
            };
            return self.log(clock, &mut sink, req, op);
        }
        let name = crate::workload::session_of(req).to_owned();
        let s = self
            .sessions
            .get_mut(&name)
            .ok_or_else(|| format!("shadow has no session {name}"))?;
        let edit = match req {
            Request::PushVoter { ranking, .. } => {
                let r = ranking.clone();
                let (id, ns) = timed(clock, || s.dp.push_voter(r));
                span(&mut sink, "dynamic.edit", ns);
                let voter = id.map_err(|e| e.to_string())?.raw();
                mismatch(Response::VoterPushed { voter })?;
                Some(WalOp::Push {
                    name,
                    voter,
                    ranking: ranking.clone(),
                })
            }
            Request::ReplaceVoter { voter, ranking, .. } => {
                let r = ranking.clone();
                let (res, ns) = timed(clock, || s.dp.replace_voter(VoterId::from_raw(*voter), r));
                span(&mut sink, "dynamic.edit", ns);
                res.map_err(|e| e.to_string())?;
                Some(WalOp::Replace {
                    name,
                    voter: *voter,
                    ranking: ranking.clone(),
                })
            }
            Request::RemoveVoter { voter, .. } => {
                let (res, ns) = timed(clock, || s.dp.remove_voter(VoterId::from_raw(*voter)));
                span(&mut sink, "dynamic.edit", ns);
                res.map_err(|e| e.to_string())?;
                Some(WalOp::Remove {
                    name,
                    voter: *voter,
                })
            }
            _ => None,
        };
        if let Some(op) = edit {
            let (snap, ns) = timed(clock, || s.dp.snapshot().ok());
            span(&mut sink, "dynamic.snapshot", ns);
            s.snap = snap;
            return self.log(clock, &mut sink, req, op);
        }
        let snap = s.snap.as_ref().ok_or("read of an empty shadow session")?;
        let voter = |id: u64| -> Result<BucketOrder, String> {
            s.dp.get_voter(VoterId::from_raw(id))
                .cloned()
                .ok_or_else(|| format!("shadow has no voter {id}"))
        };
        match req {
            Request::MedianOrder { .. } => {
                let (order, ns) = timed(clock, || snap.median_order());
                span(&mut sink, "dynamic.read", ns);
                mismatch(Response::Ranking { order })
            }
            Request::TopK { k, .. } => {
                let (order, ns) = timed(clock, || snap.top_k(*k as usize));
                span(&mut sink, "dynamic.read", ns);
                mismatch(Response::Ranking {
                    order: order.map_err(|e| e.to_string())?,
                })
            }
            Request::KemenyCost { candidate, .. } => {
                let (value, ns) = timed(clock, || snap.tally().kemeny_cost_x2(candidate));
                span(&mut sink, "tally.kemeny", ns);
                mismatch(Response::CostX2 {
                    value: value.map_err(|e| e.to_string())?,
                })
            }
            Request::PairMetric {
                metric,
                voter_a,
                voter_b,
                ..
            } => {
                let (a, b) = (voter(*voter_a)?, voter(*voter_b)?);
                let ((pa, pb), ns) = timed(clock, || {
                    (PreparedRanking::new(&a), PreparedRanking::new(&b))
                });
                span(&mut sink, "prepared.prepare", ns);
                let (kernel, name): (fn(&PreparedRanking, &PreparedRanking) -> _, _) = match metric
                {
                    MetricKind::KprofX2 => (kprof_x2_prepared, "prepared.kprof"),
                    MetricKind::FprofX2 => (fprof_x2_prepared, "prepared.fprof"),
                    MetricKind::KhausX2 => (khaus_x2_prepared, "prepared.khaus"),
                    MetricKind::FhausX2 => (fhaus_x2_prepared, "prepared.fhaus"),
                };
                let (value, ns) = timed(clock, || kernel(&pa, &pb));
                span(&mut sink, name, ns);
                mismatch(Response::CostX2 {
                    value: value.map_err(|e| e.to_string())?,
                })
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
                let (a, b) = (voter(*voter_a)?, voter(*voter_b)?);
                let w = Weights::from_units(weights.clone()).map_err(|e| e.to_string())?;
                let ((pa, pb), ns) = timed(clock, || {
                    (PreparedRanking::new(&a), PreparedRanking::new(&b))
                });
                span(&mut sink, "prepared.prepare", ns);
                let (value, ns, name) = if matches!(req, Request::TopDiff { .. }) {
                    let (v, ns) = timed(clock, || top_diff_prepared(&pa, &pb, &w));
                    (v, ns, "weighted.top_diff")
                } else {
                    let (v, ns) = timed(clock, || weighted_footrule_x2_prepared(&pa, &pb, &w));
                    (v, ns, "weighted.footrule")
                };
                span(&mut sink, name, ns);
                mismatch(Response::CostX2 {
                    value: value.map_err(|e| e.to_string())?,
                })
            }
            Request::MinMaxAgg { .. } => {
                let rankings: Vec<BucketOrder> =
                    s.dp.voter_ids()
                        .into_iter()
                        .filter_map(|id| s.dp.get_voter(id).cloned())
                        .collect();
                let (res, ns) = timed(clock, || minmax_aggregate(&rankings, None, DEFAULT_SEED));
                span(&mut sink, "minmax.aggregate", ns);
                let (order, cost_x2) = res.map_err(|e| e.to_string())?;
                mismatch(Response::RankingCost { order, cost_x2 })
            }
            other => Err(format!("shadow cannot replay {other:?}")),
        }
    }
}

/// Replays every client's log: set-up frames untimed, then the traced
/// window's frames under the trace.
pub fn replay(
    spec: &Spec,
    logs: &[Vec<Frame>],
    work_dir: &Path,
    clock: Clock,
) -> Result<Ledger, String> {
    let dir = work_dir.join("replay");
    clear_dir(&dir)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let svc = Service::with_config(ServiceConfig {
        shards: DEFAULT_SHARDS,
        max_sessions: spec.max_sessions,
        data_dir: spec.durable.then(|| dir.join("service")),
        checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
    })
    .map_err(|e| format!("replay service: {e}"))?;
    let wal = if spec.durable {
        Some(WalWriter::open(&dir.join("shadow-wal.log")).map_err(|e| format!("shadow wal: {e}"))?)
    } else {
        None
    };
    let mut shadow = Shadow {
        sessions: HashMap::new(),
        wal,
        seq: 0,
        wal_bytes: 0,
        wal_user_bytes: 0,
    };
    let mut ledger = Ledger::default();
    for frame in logs.iter().flatten().filter(|f| !f.timed) {
        for op in &frame.ops {
            let resp = svc.handle(op.clone());
            if let Err(m) = shadow.run(clock, None, op, &resp) {
                ledger.mismatches.push(m);
            }
        }
    }
    // The shadow WAL's set-up records are not part of the ledger.
    shadow.wal_bytes = 0;
    shadow.wal_user_bytes = 0;
    for frame in logs.iter().flatten().filter(|f| f.timed) {
        replay_frame(&svc, &mut shadow, &mut ledger, frame, clock);
    }
    ledger.wal_bytes = shadow.wal_bytes;
    ledger.wal_user_bytes = shadow.wal_user_bytes;
    drop(svc);
    clear_dir(&dir)?;
    Ok(ledger)
}

fn replay_frame(svc: &Service, shadow: &mut Shadow, ledger: &mut Ledger, f: &Frame, clock: Clock) {
    let tr = &mut ledger.trace;
    let first = f.first_op;
    let rtt = tr.record("server.roundtrip", first, None, f.sent, f.done);

    let t0 = clock.now();
    let body = std::hint::black_box(if f.batch {
        encode_batch(&f.ops)
    } else {
        f.ops[0].encode()
    });
    let t1 = clock.now();
    let decoded = std::hint::black_box(if f.batch {
        decode_batch(&body)
    } else {
        Request::decode(&body).map(|r| vec![r])
    });
    let t2 = clock.now();
    tr.record("proto.encode_request", first, None, t0, t1);
    tr.record("proto.decode_request", first, None, t1, t2);
    if decoded.as_ref().ok() != Some(&f.ops) {
        ledger
            .mismatches
            .push(format!("request {first} does not survive encode/decode"));
    }

    let mut resps = Vec::with_capacity(f.ops.len());
    for (i, op) in f.ops.iter().enumerate() {
        let id = first + i as u64;
        let req = op.clone();
        let (resp, ns) = timed(clock, || svc.handle(req));
        let handle = ledger.trace.child_at("service.handle", id, rtt, ns);
        if matches!(resp, Response::Error { .. } | Response::Busy) {
            ledger.service_errors += 1;
        }
        if let Err(m) = shadow.run(clock, Some((&mut ledger.trace, handle, id)), op, &resp) {
            ledger.mismatches.push(m);
        }
        resps.push(resp);
    }

    let t3 = clock.now();
    let reply = std::hint::black_box(if f.batch {
        encode_batch_reply(&resps)
    } else {
        resps[0].encode()
    });
    let t4 = clock.now();
    let bodies = if f.batch {
        decode_batch_reply(&reply).unwrap_or_default()
    } else {
        vec![reply.clone()]
    };
    let parsed: Vec<Option<Response>> = bodies.iter().map(|b| Response::decode(b).ok()).collect();
    let t5 = clock.now();
    let tr = &mut ledger.trace;
    tr.record("proto.encode_reply", first, None, t3, t4);
    tr.record("proto.decode_reply", first, None, t4, t5);

    let hashes: Vec<u64> = bodies.iter().map(|b| body_hash(b)).collect();
    if hashes != f.reply_hash
        || parsed
            .iter()
            .zip(&resps)
            .any(|(p, r)| p.as_ref() != Some(r))
    {
        ledger.mismatches.push(format!(
            "replayed replies of frame {first} differ from the served ones"
        ));
    }
    let ops = f.ops.len() as f64;
    ledger
        .encode_ns_per_op
        .push(((t1 - t0) + (t4 - t3)) as f64 / ops);
    ledger
        .decode_ns_per_op
        .push(((t2 - t1) + (t5 - t4)) as f64 / ops);
    ledger.wire_bytes += (body.len() + reply.len()) as u64;
    ledger.ops += f.ops.len() as u64;
}
