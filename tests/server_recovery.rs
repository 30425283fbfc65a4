//! Differential crash-recovery suite for the durable, sharded session
//! service (DESIGN.md §3.3e).
//!
//! Two crash models, both driven by random edit scripts from
//! `testkit::gen::edit_script_with_degenerates` and both compared
//! **byte-for-byte** against an in-process mirror engine that applies
//! exactly the acknowledged prefix:
//!
//! * **Edit-boundary crashes** (over real TCP): run a prefix of the
//!   script against a served instance, hard-stop the process state
//!   (shutdown never checkpoints — at the WAL level it is
//!   indistinguishable from a kill), rebind over the same
//!   `--data-dir`, and require every tally/median/snapshot reply —
//!   and the entire remainder of the script — byte-identical to the
//!   mirror.
//! * **Torn mid-record WAL tails** (in-process service): run the whole
//!   script, then truncate the shard's WAL at a byte offset strictly
//!   inside a record. Recovery must survive the torn tail, keep every
//!   record before it, and serve exactly the mirror of that prefix —
//!   the recovery invariant "acknowledged ⇒ replayed" on the
//!   surviving records, and nothing past the tear.
//!
//! The CI heavy lane (`BUCKETRANK_CI_HEAVY=1`) upgrades the sampled
//! tear to an exhaustive **every-byte-offset** matrix over fixed
//! scripts.

use bucketrank::aggregate::dynamic::{DynamicProfile, VoterId};
use bucketrank::aggregate::{AggregateError, MedianPolicy};
use bucketrank::metrics::prepared::{
    fhaus_x2_prepared, fprof_x2_prepared, khaus_x2_prepared, kprof_x2_prepared, PreparedRanking,
};
use bucketrank::server::proto::{ErrorCode, MetricKind, Request, Response, WirePolicy};
use bucketrank::server::service::{Service, ServiceConfig};
use bucketrank::server::wal::{WalOp, WalRecord, WalWriter};
use bucketrank::server::{Client, Server, ServerConfig};
use bucketrank::BucketOrder;
use bucketrank_testkit::gen::EditOp;
use bucketrank_testkit::prelude::*;
use bucketrank_testkit::runner::case_rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A per-case scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bucketrank-recovery-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scripts() -> impl Gen<Value = Vec<EditOp>> {
    gen::edit_script_with_degenerates(3..=14, 6, 3)
}

fn script_domain(script: &[EditOp]) -> usize {
    script
        .iter()
        .find_map(|op| match op {
            EditOp::Push(r) | EditOp::Replace(_, r) => Some(r.len()),
            EditOp::Remove(_) => None,
        })
        .expect("scripts always embed a ranking")
}

/// Deterministic per-script entropy (the property only receives the
/// value, so crash points are derived from the script itself).
fn script_hash(script: &[EditOp]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for op in script {
        match op {
            EditOp::Push(r) => {
                eat(1);
                for e in 0..r.len() {
                    eat(r.bucket_index(e as u32) as u64);
                }
            }
            EditOp::Remove(i) => {
                eat(2);
                eat(*i as u64);
            }
            EditOp::Replace(i, r) => {
                eat(3);
                eat(*i as u64);
                for e in 0..r.len() {
                    eat(r.bucket_index(e as u32) as u64);
                }
            }
        }
    }
    h
}

/// The in-process mirror: the engine plus the live-voter list used to
/// resolve script indices exactly as the drivers do.
struct Mirror {
    dp: DynamicProfile,
    live: Vec<u64>,
}

impl Mirror {
    fn new(n: usize) -> Mirror {
        Mirror {
            dp: DynamicProfile::new(n, MedianPolicy::Lower),
            live: Vec::new(),
        }
    }

    /// The wire request one script op resolves to, given the current
    /// live list (empty lists target the ghost id, exercising the
    /// typed unknown-voter path).
    fn resolve(&self, name: &str, op: &EditOp) -> Request {
        let target = |i: &usize| {
            if self.live.is_empty() {
                u64::MAX
            } else {
                self.live[i % self.live.len()]
            }
        };
        match op {
            EditOp::Push(r) => Request::PushVoter {
                session: name.to_owned(),
                ranking: r.clone(),
            },
            EditOp::Remove(i) => Request::RemoveVoter {
                session: name.to_owned(),
                voter: target(i),
            },
            EditOp::Replace(i, r) => Request::ReplaceVoter {
                session: name.to_owned(),
                voter: target(i),
                ranking: r.clone(),
            },
        }
    }

    /// Applies one resolved edit, returning the reply the service must
    /// produce for it (success acks and typed errors alike).
    fn apply(&mut self, req: &Request) -> Response {
        let out = match req {
            Request::PushVoter { ranking, .. } => self
                .dp
                .push_voter(ranking.clone())
                .map(|id| {
                    self.live.push(id.raw());
                    Response::VoterPushed { voter: id.raw() }
                }),
            Request::RemoveVoter { voter, .. } => self
                .dp
                .remove_voter(VoterId::from_raw(*voter))
                .map(|_| {
                    self.live.retain(|v| v != voter);
                    Response::VoterRemoved
                }),
            Request::ReplaceVoter { voter, ranking, .. } => self
                .dp
                .replace_voter(VoterId::from_raw(*voter), ranking.clone())
                .map(|_| Response::VoterReplaced),
            other => panic!("not an edit: {other:?}"),
        };
        out.unwrap_or_else(|e| mirror_agg_error(&e))
    }

    /// The reply the service must produce for one read request.
    fn expected_read(&self, name: &str, req: &Request) -> Response {
        if self.dp.voters() == 0 {
            return Response::Error {
                code: ErrorCode::NoVoters,
                message: format!("session {name:?} has no live voters"),
            };
        }
        let snap = self.dp.snapshot().expect("live voters");
        match req {
            Request::MedianOrder { .. } => Response::Ranking {
                order: snap.median_order(),
            },
            Request::TopK { k, .. } => match snap.top_k(*k as usize) {
                Ok(order) => Response::Ranking { order },
                Err(e) => mirror_agg_error(&e),
            },
            Request::KemenyCost { candidate, .. } => {
                match snap.tally().kemeny_cost_x2(candidate) {
                    Ok(value) => Response::CostX2 { value },
                    Err(e) => mirror_agg_error(&e),
                }
            }
            other => panic!("not a read: {other:?}"),
        }
    }

    /// The reply the service must produce for a pair-metric request.
    fn expected_pair(&self, metric: MetricKind, a: u64, b: u64) -> Response {
        let fetch = |raw: u64| {
            self.dp
                .get_voter(VoterId::from_raw(raw))
                .cloned()
                .ok_or(AggregateError::UnknownVoter { id: raw })
        };
        let (ra, rb) = match (fetch(a), fetch(b)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(e), _) | (_, Err(e)) => return mirror_agg_error(&e),
        };
        let pa = PreparedRanking::new(&ra);
        let pb = PreparedRanking::new(&rb);
        let value = match metric {
            MetricKind::KprofX2 => kprof_x2_prepared(&pa, &pb),
            MetricKind::FprofX2 => fprof_x2_prepared(&pa, &pb),
            MetricKind::KhausX2 => khaus_x2_prepared(&pa, &pb),
            MetricKind::FhausX2 => fhaus_x2_prepared(&pa, &pb),
        };
        Response::CostX2 {
            value: value.expect("same-domain stored rankings"),
        }
    }

    /// The read battery compared byte-for-byte after every crash: the
    /// median order, both top-k extremes, and a Kemeny cost.
    fn read_battery(&self, name: &str, n: usize) -> Vec<Request> {
        vec![
            Request::MedianOrder {
                session: name.to_owned(),
            },
            Request::TopK {
                session: name.to_owned(),
                k: 1,
            },
            Request::TopK {
                session: name.to_owned(),
                k: n as u32,
            },
            Request::KemenyCost {
                session: name.to_owned(),
                candidate: BucketOrder::trivial(n),
            },
        ]
    }
}

fn mirror_agg_error(e: &AggregateError) -> Response {
    let code = match e {
        AggregateError::NoInputs => ErrorCode::NoVoters,
        AggregateError::DomainMismatch { .. } => ErrorCode::DomainMismatch,
        AggregateError::InvalidK { .. } => ErrorCode::InvalidK,
        AggregateError::UnknownVoter { .. } => ErrorCode::UnknownVoter,
        AggregateError::TooManyVoters { .. } => ErrorCode::TooManyVoters,
        _ => ErrorCode::BadRequest,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Crash at a random edit boundary over real TCP: acknowledged prefix
/// applied, server shut down (no checkpoint — crash-equivalent),
/// rebound over the same data dir on a fresh port. The recovered
/// instance must answer the read battery, the script's remainder, and
/// a final pair-metric probe byte-identically to the mirror.
#[test]
fn crash_at_edit_boundary_recovers_acknowledged_prefix() {
    check("crash_at_edit_boundary", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let cut = (h % (script.len() as u64 + 1)) as usize;
        // Session name varies per case so both shards see traffic.
        let name = format!("s{}", h % 7);
        let tmp = TempDir::new("tcp");
        let config = || ServerConfig {
            workers: 2,
            shards: 2,
            data_dir: Some(tmp.0.clone()),
            // Small enough that longer scripts compact mid-run, so
            // recovery mixes checkpoints with a WAL suffix.
            checkpoint_every: 5,
            ..ServerConfig::default()
        };

        let mut mirror = Mirror::new(n);
        let server = Server::bind("127.0.0.1:0", config()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let create = Request::CreateSession {
            name: name.clone(),
            n: n as u32,
            policy: WirePolicy::Lower,
        };
        assert_eq!(
            client.call_raw(&create).expect("create"),
            Response::SessionCreated.encode()
        );
        for op in &script[..cut] {
            let req = mirror.resolve(&name, op);
            let got = client.call_raw(&req).expect("edit reply");
            let want = mirror.apply(&req);
            assert_eq!(got, want.encode(), "pre-crash ack diverged on {req:?}");
        }
        drop(client);
        // Graceful drain without checkpointing: everything past the
        // synced WAL is process state, and it dies here.
        server.shutdown();

        let server = Server::bind("127.0.0.1:0", config()).expect("rebind");
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        for req in mirror.read_battery(&name, n) {
            let got = client.call_raw(&req).expect("read reply");
            assert_eq!(
                got,
                mirror.expected_read(&name, &req).encode(),
                "post-recovery read diverged on {req:?} (cut {cut}/{})",
                script.len()
            );
        }
        // The remainder of the script must play out exactly as if the
        // crash never happened — including the ids of fresh pushes.
        for op in &script[cut..] {
            let req = mirror.resolve(&name, op);
            let got = client.call_raw(&req).expect("post-crash edit");
            let want = mirror.apply(&req);
            assert_eq!(got, want.encode(), "post-crash edit diverged on {req:?}");
        }
        let (a, b) = match mirror.live.as_slice() {
            [] => (u64::MAX, u64::MAX),
            [only] => (*only, *only),
            [first, .., last] => (*first, *last),
        };
        let metric = MetricKind::ALL[(h % 4) as usize];
        let req = Request::PairMetric {
            session: name.clone(),
            metric,
            voter_a: a,
            voter_b: b,
        };
        assert_eq!(
            client.call_raw(&req).expect("pair reply"),
            mirror.expected_pair(metric, a, b).encode(),
            "pair metric diverged after recovery"
        );
        drop(client);
        server.shutdown();
    });
}

/// Byte offsets of record boundaries in a WAL: `bounds[i]` is where
/// record `i` starts; the final entry is the file length.
fn record_bounds(wal: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut at = 0;
    while at + 8 <= wal.len() {
        let len = u32::from_be_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        if at + 8 + len > wal.len() {
            break;
        }
        at += 8 + len;
        bounds.push(at);
    }
    bounds
}

/// Runs `script` against a fresh single-shard durable service with
/// compaction disabled, so the WAL holds exactly one record per
/// acknowledged create/edit. Returns the resolved requests that were
/// acknowledged with success, in WAL-record order (create first).
fn run_durable(dir: &Path, name: &str, n: usize, script: &[EditOp]) -> Vec<Request> {
    let svc = Service::with_config(ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("open service");
    let mut mirror = Mirror::new(n);
    let create = Request::CreateSession {
        name: name.to_owned(),
        n: n as u32,
        policy: WirePolicy::Lower,
    };
    assert_eq!(svc.handle(create.clone()), Response::SessionCreated);
    let mut acked = vec![create];
    for op in script {
        let req = mirror.resolve(name, op);
        let got = svc.handle(req.clone());
        assert_eq!(got, mirror.apply(&req), "live ack diverged on {req:?}");
        if !matches!(got, Response::Error { .. }) {
            acked.push(req);
        }
    }
    acked
}

/// Replays the first `records` acknowledged requests (create included)
/// into a fresh mirror — the state a recovery from that WAL prefix
/// must reproduce. Returns `None` when even the create is gone.
fn mirror_of_prefix(acked: &[Request], records: usize, n: usize) -> Option<Mirror> {
    if records == 0 {
        return None;
    }
    let mut mirror = Mirror::new(n);
    for req in &acked[1..records] {
        let resp = mirror.apply(req);
        assert!(
            !matches!(resp, Response::Error { .. }),
            "acknowledged record must replay clean"
        );
    }
    Some(mirror)
}

/// Asserts a recovered single-shard service serves exactly the mirror
/// of the surviving-record prefix (or knows nothing of the session
/// when the create itself was torn away).
fn assert_recovers_prefix(dir: &Path, name: &str, n: usize, mirror: Option<&Mirror>) {
    let svc = Service::with_config(ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: u64::MAX,
    })
    .expect("recovery must not fail on torn/corrupt records");
    match mirror {
        None => {
            let req = Request::MedianOrder {
                session: name.to_owned(),
            };
            let want = Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("no session named {name:?}"),
            };
            assert_eq!(svc.handle(req).encode(), want.encode());
        }
        Some(mirror) => {
            for req in mirror.read_battery(name, n) {
                assert_eq!(
                    svc.handle(req.clone()).encode(),
                    mirror.expected_read(name, &req).encode(),
                    "torn-tail recovery diverged on {req:?}"
                );
            }
        }
    }
}

/// Torn mid-record tails at a sampled offset: truncating the WAL
/// strictly inside record `j` must recover exactly records `0..j`.
#[test]
fn torn_wal_tail_recovers_exactly_the_surviving_records() {
    check("torn_wal_tail", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let name = "torn";
        let tmp = TempDir::new("torn");
        let acked = run_durable(&tmp.0, name, n, script);

        let wal_path = tmp.0.join("shard-0").join("wal.log");
        let wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);
        assert_eq!(
            bounds.len(),
            acked.len() + 1,
            "one WAL record per acknowledged op"
        );
        // Tear strictly inside record j: any offset in
        // (bounds[j], bounds[j+1]) leaves records 0..j intact and
        // truncates j away as a torn tail.
        let j = (h % acked.len() as u64) as usize;
        let span = bounds[j + 1] - bounds[j];
        let tear = bounds[j] + 1 + (h >> 8) as usize % (span - 1);
        std::fs::write(&wal_path, &wal[..tear]).expect("tear wal");

        let mirror = mirror_of_prefix(&acked, j, n);
        assert_recovers_prefix(&tmp.0, name, n, mirror.as_ref());
    });
}

/// Bit-flips inside a record body must truncate recovery at that
/// record (CRC catches them), never panic, and never leak anything
/// past the corrupt record into the recovered state.
#[test]
fn corrupt_wal_record_truncates_recovery_at_the_fault() {
    check("corrupt_wal_record", scripts(), |script| {
        let n = script_domain(script);
        let h = script_hash(script);
        let name = "torn";
        let tmp = TempDir::new("flip");
        let acked = run_durable(&tmp.0, name, n, script);

        let wal_path = tmp.0.join("shard-0").join("wal.log");
        let mut wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);
        let j = (h % acked.len() as u64) as usize;
        // Flip one bit somewhere in record j (header or body alike).
        let span = bounds[j + 1] - bounds[j];
        let at = bounds[j] + (h >> 8) as usize % span;
        wal[at] ^= 1 << ((h >> 16) % 8);
        std::fs::write(&wal_path, &wal).expect("corrupt wal");

        let mirror = mirror_of_prefix(&acked, j, n);
        assert_recovers_prefix(&tmp.0, name, n, mirror.as_ref());
    });
}

/// The reviewer-found drop-anchor regression: after a compaction, edit
/// a session, drop it (which deletes its checkpoint — the only anchor
/// the pre-drop edit record had), then create and edit a *different*
/// session and crash. Replay must skip the unanchorable pre-drop edit
/// (its later Drop record proves it unobservable) instead of faulting
/// and discarding the second session's acknowledged records.
#[test]
fn drop_after_compaction_edit_does_not_fault_later_sessions() {
    let tmp = TempDir::new("drop-anchor");
    let cfg = || ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(tmp.0.clone()),
        checkpoint_every: 5,
    };
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let t_ranking = keys(&[2, 1, 3]);
    {
        let svc = Service::with_config(cfg()).expect("open");
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "s".into(),
                n: 3,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        // Records 2..=5: the 4th push makes since_compact hit 5, so the
        // shard compacts — checkpoint for "s" current, WAL empty.
        for _ in 0..4 {
            assert!(matches!(
                svc.handle(Request::PushVoter {
                    session: "s".into(),
                    ranking: keys(&[1, 2, 3]),
                }),
                Response::VoterPushed { .. }
            ));
        }
        // Post-compaction: edit "s" (in the WAL, anchored only by the
        // checkpoint), drop "s" (checkpoint deleted), then create and
        // edit "t" — all acknowledged, none compacted.
        assert!(matches!(
            svc.handle(Request::PushVoter {
                session: "s".into(),
                ranking: keys(&[3, 2, 1]),
            }),
            Response::VoterPushed { .. }
        ));
        assert_eq!(
            svc.handle(Request::DropSession { name: "s".into() }),
            Response::SessionDropped
        );
        assert_eq!(
            svc.handle(Request::CreateSession {
                name: "t".into(),
                n: 3,
                policy: WirePolicy::Lower,
            }),
            Response::SessionCreated
        );
        assert_eq!(
            svc.handle(Request::PushVoter {
                session: "t".into(),
                ranking: t_ranking.clone(),
            }),
            Response::VoterPushed { voter: 0 }
        );
        // Hard drop: no checkpoint fires for "t" before the crash.
    }
    let svc = Service::with_config(cfg()).expect("recovery must survive the dropped anchor");
    // "t" and its acknowledged edit survived the crash.
    assert_eq!(
        svc.handle(Request::MedianOrder { session: "t".into() }),
        Response::Ranking {
            order: t_ranking.clone()
        }
    );
    // Voter ids continue exactly where the pre-crash process stopped.
    assert_eq!(
        svc.handle(Request::PushVoter {
            session: "t".into(),
            ranking: t_ranking,
        }),
        Response::VoterPushed { voter: 1 }
    );
    // The dropped session stayed dropped (no resurrection from any
    // leftover checkpoint or skipped record).
    assert!(matches!(
        svc.handle(Request::MedianOrder { session: "s".into() }),
        Response::Error {
            code: ErrorCode::UnknownSession,
            ..
        }
    ));
}

/// Files named `wal.log.corrupt-*` in a shard directory.
fn preserved_logs(shard_dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(shard_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|s| s.to_str())
                        .is_some_and(|s| s.starts_with("wal.log.corrupt-"))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// A mid-log corruption (here a CRC flip) discards everything after
/// the fault, so recovery must set the log aside as
/// `wal.log.corrupt-*` for post-mortem before compaction truncates it;
/// a pure torn tail — the normal residue of a crash mid-append — must
/// *not* litter the directory with preserved copies.
#[test]
fn corrupt_wal_suffix_is_preserved_for_post_mortem() {
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let script: Vec<EditOp> = vec![
        EditOp::Push(keys(&[1, 2, 3])),
        EditOp::Push(keys(&[3, 2, 1])),
        EditOp::Push(keys(&[2, 1, 3])),
    ];
    let name = "torn";

    // CRC flip in record 1: records 2.. are silently unreachable, so
    // the log must be preserved.
    let tmp = TempDir::new("preserve");
    let acked = run_durable(&tmp.0, name, 3, &script);
    let shard_dir = tmp.0.join("shard-0");
    let wal_path = shard_dir.join("wal.log");
    let mut wal = std::fs::read(&wal_path).expect("read wal");
    let bounds = record_bounds(&wal);
    wal[bounds[1] + 4] ^= 1; // CRC byte of record 1: guaranteed BadCrc
    std::fs::write(&wal_path, &wal).expect("corrupt wal");
    let mirror = mirror_of_prefix(&acked, 1, 3);
    assert_recovers_prefix(&tmp.0, name, 3, mirror.as_ref());
    let kept = preserved_logs(&shard_dir);
    assert_eq!(
        kept.len(),
        1,
        "a mid-log corruption must preserve the log: {kept:?}"
    );
    // The preserved copy holds the full pre-corruption byte stream.
    assert_eq!(std::fs::read(&kept[0]).expect("read preserved"), wal);

    // Torn tail: same script, truncate strictly inside the last
    // record. Recovery keeps the prefix and preserves nothing.
    let tmp = TempDir::new("tear-clean");
    let acked = run_durable(&tmp.0, name, 3, &script);
    let shard_dir = tmp.0.join("shard-0");
    let wal_path = shard_dir.join("wal.log");
    let wal = std::fs::read(&wal_path).expect("read wal");
    let bounds = record_bounds(&wal);
    let last = bounds.len() - 2;
    std::fs::write(&wal_path, &wal[..bounds[last] + 3]).expect("tear wal");
    let mirror = mirror_of_prefix(&acked, last, 3);
    assert_recovers_prefix(&tmp.0, name, 3, mirror.as_ref());
    assert!(
        preserved_logs(&shard_dir).is_empty(),
        "a plain torn tail must not be preserved"
    );
}

/// CRC-valid records that replay must refuse: a log whose k-th record
/// is a push with the wrong id, a remove of an unknown voter, a
/// wrong-length replace, a second create of a live session, or an edit
/// of a session nothing anchors (and no later drop excuses), followed
/// by one valid record. Recovery must serve exactly the records before
/// the fault — neither the refused record nor the valid one after it
/// may reach the state — and preserve the log for post-mortem.
#[test]
fn refused_wal_records_truncate_recovery_at_the_fault() {
    let (name, n) = ("refused", 3usize);
    let keys = |k: &[i64]| BucketOrder::from_keys(k);
    let rankings = [
        keys(&[1, 2, 3]),
        keys(&[3, 1, 2]),
        keys(&[2, 2, 1]),
        keys(&[1, 1, 2]),
    ];
    let push = |session: &str, voter: u64| WalOp::Push {
        name: session.to_owned(),
        voter,
        ranking: rankings[voter as usize % rankings.len()].clone(),
    };
    let create = WalOp::Create {
        name: name.to_owned(),
        n: n as u32,
        policy: WirePolicy::Lower,
    };
    for k in 1..=3usize {
        // Records 0..k are the create and k-1 pushes, all acknowledged;
        // `next` is the id the next push must carry.
        let next = (k - 1) as u64;
        let mut acked = vec![Request::CreateSession {
            name: name.to_owned(),
            n: n as u32,
            policy: WirePolicy::Lower,
        }];
        acked.extend((0..next).map(|voter| Request::PushVoter {
            session: name.to_owned(),
            ranking: rankings[voter as usize].clone(),
        }));
        let refused = [
            ("push id mismatch", push(name, next + 5)),
            (
                "remove of an unknown voter",
                WalOp::Remove {
                    name: name.to_owned(),
                    voter: 99,
                },
            ),
            (
                "wrong-length replace",
                WalOp::Replace {
                    name: name.to_owned(),
                    voter: 0,
                    ranking: keys(&[1, 2]),
                },
            ),
            ("duplicate create", create.clone()),
            ("unanchored session", push("ghost", 0)),
        ];
        for (what, bad) in refused {
            let tmp = TempDir::new("refused");
            let shard_dir = tmp.0.join("shard-0");
            std::fs::create_dir_all(&shard_dir).expect("shard dir");
            let ops = std::iter::once(create.clone())
                .chain((0..next).map(|voter| push(name, voter)))
                .chain([bad, push(name, next)]);
            let mut wal = WalWriter::open(&shard_dir.join("wal.log")).expect("open wal");
            for (seq, op) in (1..).zip(ops) {
                wal.append(&WalRecord { seq, op }).expect("append");
            }
            drop(wal);

            let mirror = mirror_of_prefix(&acked, k, n);
            assert_recovers_prefix(&tmp.0, name, n, mirror.as_ref());
            assert_eq!(
                preserved_logs(&shard_dir).len(),
                1,
                "{what} at record {k}: the refused log must be preserved"
            );
        }
    }
}

/// A failed WAL append must not strand the acknowledged edits after it.
/// A child process (this test binary, re-run under `sh` with a
/// `ulimit -f` file-size limit and SIGXFSZ ignored, so `write` returns a
/// short count and then `EFBIG`) pushes wide rankings into a durable
/// service until one push fails mid-record, then removes a voter. The
/// remove's small record fits under the limit only if the failed push
/// left no bytes behind, and after a restart in this unlimited process
/// the service must serve every acknowledged edit, the remove included.
#[test]
#[cfg(unix)]
fn failed_append_does_not_strand_later_acknowledged_edits() {
    const CHILD: &str = "BUCKETRANK_SHORT_WRITE_DIR";
    const N: usize = 240;
    let wide = |i: usize| {
        let keys: Vec<i64> = (0..N).map(|e| ((e * (i + 1)) % 7) as i64).collect();
        BucketOrder::from_keys(&keys)
    };
    let cfg = |dir: PathBuf| ServiceConfig {
        shards: 1,
        max_sessions: 64,
        data_dir: Some(dir),
        checkpoint_every: u64::MAX,
    };
    if let Some(dir) = std::env::var_os(CHILD) {
        let svc = Service::with_config(cfg(dir.into())).expect("open service");
        let create = Request::CreateSession {
            name: "s".into(),
            n: N as u32,
            policy: WirePolicy::Lower,
        };
        assert_eq!(svc.handle(create), Response::SessionCreated);
        let mut pushed = 0;
        while let Response::VoterPushed { .. } = svc.handle(Request::PushVoter {
            session: "s".into(),
            ranking: wide(pushed),
        }) {
            pushed += 1;
            assert!(pushed < 64, "the file-size limit was never hit");
        }
        let remove = Request::RemoveVoter {
            session: "s".into(),
            voter: 0,
        };
        assert_eq!(svc.handle(remove), Response::VoterRemoved);
        println!("acknowledged pushes: {pushed}");
        return;
    }
    let tmp = TempDir::new("short-write");
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg("trap '' XFSZ; ulimit -f 8 && exec \"$0\" \"$@\"")
        .arg(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "failed_append_does_not_strand_later_acknowledged_edits",
            "--nocapture",
        ])
        .env(CHILD, &tmp.0)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pushed: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("acknowledged pushes: "))
        .and_then(|s| s.trim().parse().ok())
        .expect("child reports its acknowledged pushes");
    // `ulimit -f 8` is 8 blocks of 512 or 1024 bytes, depending on the
    // shell: at least a few wide pushes fit either way.
    assert!(pushed >= 3, "{pushed}");
    let mut mirror = Mirror::new(N);
    for i in 0..pushed {
        mirror.apply(&Request::PushVoter {
            session: "s".into(),
            ranking: wide(i),
        });
    }
    mirror.apply(&Request::RemoveVoter {
        session: "s".into(),
        voter: 0,
    });
    assert_recovers_prefix(&tmp.0, "s", N, Some(&mirror));
}

/// The CI heavy lane's exhaustive matrix: for a handful of fixed
/// scripts, every byte offset of the WAL is used as a truncation
/// point. `truncate at offset t` keeps exactly the records that fit
/// entirely below `t` — recovery must serve precisely their mirror,
/// for every single `t`.
#[test]
#[ignore = "exhaustive torn-offset matrix; run in the CI heavy lane"]
fn every_torn_offset_recovers_its_exact_prefix() {
    let cfg = Config::from_env();
    for case in 0..4usize {
        let mut rng = case_rng(cfg.seed, "torn_offset_matrix", case);
        let script = scripts().generate(&mut rng);
        let n = script_domain(&script);
        let name = "torn";
        let master = TempDir::new("matrix-master");
        let acked = run_durable(&master.0, name, n, &script);
        let wal_path = master.0.join("shard-0").join("wal.log");
        let wal = std::fs::read(&wal_path).expect("read wal");
        let bounds = record_bounds(&wal);

        let shard_dir = master.0.join("shard-0");
        for tear in 0..=wal.len() {
            // Recovery compacts (checkpoints + truncation), so rebuild
            // the shard directory from the saved WAL copy every time.
            let _ = std::fs::remove_dir_all(&shard_dir);
            std::fs::create_dir_all(&shard_dir).expect("recreate shard dir");
            std::fs::write(&wal_path, &wal[..tear]).expect("tear wal");
            // Records surviving a tear at `tear`: those ending ≤ tear.
            let survivors = bounds[1..].iter().filter(|&&b| b <= tear).count();
            let mirror = mirror_of_prefix(&acked, survivors, n);
            assert_recovers_prefix(&master.0, name, n, mirror.as_ref());
        }
    }
}
