//! The sharded session registry: per-shard edit locks, durability and
//! LRU eviction.
//!
//! A [`crate::Service`] owns N [`Shard`]s; a session lives on the
//! shard named by a stable FNV-1a hash of its name ([`shard_index`] —
//! stable across processes, so a restart finds each session's records
//! in the same shard directory). Each shard owns, behind **one**
//! mutex:
//!
//! * its slice of the session map (resident engines and evicted
//!   checkpoint references),
//! * its monotonic edit sequence number,
//! * its durability state (WAL writer, checkpoint file ids,
//!   compaction countdown).
//!
//! Edits on different shards therefore never contend, while edits on
//! one shard serialize — which is also what makes the WAL order equal
//! the acknowledgement order. Reads never take the shard mutex beyond
//! name resolution (and not even that when the caller's session cache
//! is hot): they clone the session's published
//! `Arc<DynamicSnapshot>` and compute on it outside every lock.
//!
//! # One edit path
//!
//! Every edit, durable or not, is one [`WalOp`] taken through the same
//! steps: [`Shard::edit`] builds the op (a push takes the engine's
//! `next_push_id` under the edit lock), the engine's own `check_*`
//! method vets it, the shard logs it when durable, and [`apply`] runs
//! it and the fresh snapshot is published. A refused edit logs nothing
//! and changes nothing, so durable and memory-only services answer the
//! same bytes. WAL replay feeds each record to the same [`apply`].
//!
//! # Lock order
//!
//! `Shard::state` → `Session::profile` → `Session::snap`, always.
//! Eviction and compaction hold the shard mutex and take session
//! profile mutexes inside it; the pair-metric path takes a profile
//! mutex alone and never touches the shard mutex afterwards.
//!
//! # Durability
//!
//! With a data directory configured, every acknowledged lifecycle or
//! edit operation appends one [`WalRecord`] — synced before the
//! acknowledgement — and every `checkpoint_every` records the shard
//! compacts: stale sessions are checkpointed (atomic tmp+rename),
//! superseded checkpoint files deleted, and the WAL truncated to
//! empty. Recovery ([`Shard::open`]) loads the checkpoints, replays
//! the WAL's valid prefix seq-gated per session (a record is applied
//! only if its `seq` exceeds the session's checkpointed `last_seq`,
//! so eviction checkpoints never double-apply), truncates corruption
//! at the first fault, and ends with a full compaction — after a
//! restart the log is empty and every session's checkpoint is
//! current.

use crate::proto::{ErrorCode, Request, Response, ShardStats, WirePolicy};
use crate::wal::{self, Checkpoint, WalError, WalOp, WalRecord, WalWriter};
use bucketrank_aggregate::dynamic::{DynamicProfile, DynamicSnapshot, VoterId};
use bucketrank_aggregate::{AggregateError, MedianPolicy};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Stable shard map: FNV-1a over the session name, reduced mod the
/// shard count. Deliberately **not** the std hasher — the mapping must
/// survive process restarts and toolchain upgrades, because it names
/// the directory a session's durable records live in.
pub(crate) fn shard_index(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

impl From<WirePolicy> for MedianPolicy {
    fn from(p: WirePolicy) -> Self {
        match p {
            WirePolicy::Lower => MedianPolicy::Lower,
            WirePolicy::Upper => MedianPolicy::Upper,
        }
    }
}

impl From<MedianPolicy> for WirePolicy {
    fn from(p: MedianPolicy) -> Self {
        match p {
            MedianPolicy::Lower => WirePolicy::Lower,
            MedianPolicy::Upper => WirePolicy::Upper,
        }
    }
}

/// One named session: the live engine plus its published read view.
pub(crate) struct Session {
    /// Edit path: owned exclusively by one writer at a time.
    pub(crate) profile: Mutex<DynamicProfile>,
    /// Read path: the snapshot at the last successful edit (`None`
    /// while the session has no live voters).
    snap: RwLock<Option<Arc<DynamicSnapshot>>>,
    /// LRU clock value of the last touch (shard-issued, strictly
    /// increasing per touch).
    touched: AtomicU64,
}

impl Session {
    fn new(dp: DynamicProfile) -> Self {
        let snap = dp.snapshot().ok().map(Arc::new);
        Session {
            profile: Mutex::new(dp),
            snap: RwLock::new(snap),
            touched: AtomicU64::new(0),
        }
    }

    /// Republishes the snapshot after an edit (called with the edit
    /// mutex held, so publications are ordered with the edits).
    pub(crate) fn publish(&self, dp: &DynamicProfile) {
        let fresh = dp.snapshot().ok().map(Arc::new);
        *self.snap.write().expect("snapshot lock") = fresh;
    }

    /// The published read view, if any voter is live.
    pub(crate) fn read_view(&self) -> Option<Arc<DynamicSnapshot>> {
        self.snap.read().expect("snapshot lock").clone()
    }
}

/// Maps an engine failure to its typed wire error.
pub(crate) fn agg_error(e: &AggregateError) -> Response {
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

/// A typed wire error.
pub(crate) fn error(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn unknown_session(name: &str) -> Response {
    error(ErrorCode::UnknownSession, format!("no session named {name:?}"))
}

fn io_response(what: &str, e: &io::Error) -> Response {
    error(ErrorCode::BadRequest, format!("{what}: {e}"))
}

/// The engine's own checks for one edit op, run before it is logged.
fn check(dp: &DynamicProfile, op: &WalOp) -> Result<(), AggregateError> {
    match op {
        WalOp::Push { ranking, .. } => dp.check_push(ranking),
        WalOp::Remove { voter, .. } => dp.check_remove(VoterId::from_raw(*voter)),
        WalOp::Replace { voter, ranking, .. } => {
            dp.check_replace(VoterId::from_raw(*voter), ranking)
        }
        WalOp::Create { .. } | WalOp::Drop { .. } => Ok(()),
    }
}

/// Applies one logged edit to a session engine, mapping success to its
/// reply — the only place the shard changes an engine, for live edits
/// and WAL replay alike.
fn apply(dp: &mut DynamicProfile, op: WalOp) -> Result<Response, AggregateError> {
    match op {
        WalOp::Push { ranking, .. } => dp
            .push_voter(ranking)
            .map(|id| Response::VoterPushed { voter: id.raw() }),
        WalOp::Remove { voter, .. } => dp
            .remove_voter(VoterId::from_raw(voter))
            .map(|_| Response::VoterRemoved),
        WalOp::Replace { voter, ranking, .. } => dp
            .replace_voter(VoterId::from_raw(voter), ranking)
            .map(|_| Response::VoterReplaced),
        WalOp::Create { .. } | WalOp::Drop { .. } => {
            unreachable!("lifecycle records never reach a session engine")
        }
    }
}

/// Rebuilds a session engine from its checkpoint.
fn restore(ck: Checkpoint) -> Result<DynamicProfile, AggregateError> {
    DynamicProfile::from_voters(ck.n as usize, ck.policy.into(), ck.voters, ck.next_id)
}

/// A checkpoint file reference: its monotonic file id and the shard
/// sequence number its contents are current through.
#[derive(Clone, Copy)]
struct CkptRef {
    id: u64,
    seq: u64,
}

fn ckpt_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id}.bin"))
}

/// The file id of a `ckpt-<id>.bin` path.
fn ckpt_id(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// A session slot: in memory, or evicted to its checkpoint file.
enum Slot {
    Resident {
        session: Arc<Session>,
        /// Shard sequence number of the session's last applied record
        /// (0 for memory-only shards, which write no records).
        last_seq: u64,
        /// The on-disk checkpoint covering this session, if any.
        ckpt: Option<CkptRef>,
    },
    Evicted {
        ckpt: CkptRef,
    },
}

struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    next_file_id: u64,
    checkpoint_every: u64,
    since_compact: u64,
}

struct ShardState {
    slots: HashMap<String, Slot>,
    /// The shard's monotonic edit sequence number (last issued).
    seq: u64,
    dur: Option<Durability>,
}

impl ShardState {
    /// Number of resident sessions.
    fn resident(&self) -> usize {
        self.slots
            .values()
            .filter(|s| matches!(s, Slot::Resident { .. }))
            .count()
    }
}

/// Per-shard monotonic counters, updated with atomics so paths that do
/// not hold the shard mutex (LRU touches) and the aggregating stats
/// reader never contend with the edit path.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub(crate) wal_records: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) recoveries: AtomicU64,
}

/// One shard; see the [module docs](self).
pub(crate) struct Shard {
    /// Resident-session cap for this shard.
    cap: usize,
    /// The service-wide cap, quoted in capacity error messages.
    global_cap: usize,
    /// LRU clock: bumped on every touch, never under the mutex.
    tick: AtomicU64,
    /// Bumped on every create/drop/evict/fault-in; callers holding a
    /// cached `Arc<Session>` revalidate against it so a cached read
    /// can never see a session object the registry has replaced.
    epoch: AtomicU64,
    counters: ShardCounters,
    state: Mutex<ShardState>,
}

impl Shard {
    fn with_state(cap: usize, global_cap: usize, seq: u64, dur: Option<Durability>) -> Shard {
        Shard {
            cap,
            global_cap,
            tick: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            counters: ShardCounters::default(),
            state: Mutex::new(ShardState {
                slots: HashMap::new(),
                seq,
                dur,
            }),
        }
    }

    /// A memory-only shard (no WAL, no checkpoints, no eviction — at
    /// capacity, creates are refused exactly as before sharding).
    pub(crate) fn new(cap: usize, global_cap: usize) -> Shard {
        Shard::with_state(cap, global_cap, 0, None)
    }

    /// Opens a durable shard over `dir`, recovering whatever a prior
    /// process left there: checkpoints are loaded, the WAL's valid
    /// prefix replayed seq-gated, corruption truncated at the first
    /// fault, and the shard fully compacted before serving.
    ///
    /// # Errors
    /// Real I/O failures only — corrupt records and checkpoints are
    /// typed, truncated and survived, never fatal.
    pub(crate) fn open(
        cap: usize,
        global_cap: usize,
        dir: PathBuf,
        checkpoint_every: u64,
    ) -> io::Result<Shard> {
        fs::create_dir_all(&dir)?;
        // Make the shard directory's own entry durable; the files
        // inside sync their entries as they are created/renamed.
        wal::sync_dir(&dir)?;
        // A tmp file is a checkpoint whose rename never happened —
        // dead by construction.
        let mut ckpts: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.to_str().is_some_and(|s| s.ends_with(".tmp")) {
                let _ = fs::remove_file(&path);
            } else if let Some(id) = ckpt_id(&path) {
                ckpts.push((id, path));
            }
        }
        let next_file_id = ckpts.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);

        // Load checkpoints; on duplicate session names (a crash between
        // writing a fresh checkpoint and deleting the superseded one)
        // the higher last_seq wins. Corrupt checkpoint files are
        // skipped — the orphan cleanup below removes them.
        let mut by_name: HashMap<String, (u64, Checkpoint)> = HashMap::new();
        for (id, path) in ckpts {
            let ck = match Checkpoint::read(&path)? {
                Ok(ck) => ck,
                Err(_) => continue,
            };
            match by_name.get(&ck.name) {
                Some((_, held)) if held.last_seq >= ck.last_seq => {}
                _ => {
                    by_name.insert(ck.name.clone(), (id, ck));
                }
            }
        }

        struct Rebuilt {
            dp: DynamicProfile,
            last_seq: u64,
            ckpt: Option<CkptRef>,
        }
        let mut sessions: HashMap<String, Rebuilt> = HashMap::new();
        let mut seq = 0u64;
        for (name, (id, ck)) in by_name {
            let last_seq = ck.last_seq;
            // A file that framed and decoded but whose contents are
            // inconsistent (duplicate ids, id ≥ next_id) is typed
            // corruption, skipped like a CRC failure.
            let Ok(dp) = restore(ck) else {
                continue;
            };
            seq = seq.max(last_seq);
            let ckpt = Some(CkptRef { id, seq: last_seq });
            sessions.insert(name, Rebuilt { dp, last_seq, ckpt });
        }

        // Replay the WAL's valid prefix; stop — without panicking and
        // without applying anything further — at the first record that
        // is torn, corrupt, or inconsistent with the rebuilt state.
        let wal_path = dir.join("wal.log");
        let wal_len = fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
        let scan = wal::scan_file(&wal_path)?;
        // A dropped session's checkpoint file is deleted the moment its
        // Drop record is acknowledged, so the log can hold edit records
        // for a session with no surviving anchor (compact, edit, drop:
        // the edits are in the log, the checkpoint is gone). The Drop
        // record that follows them proves their effects are
        // unobservable — map each name to its last drop seq so replay
        // skips those records instead of faulting and discarding every
        // acknowledged record after them.
        let mut drop_horizon: HashMap<String, u64> = HashMap::new();
        for rec in &scan.records {
            if let WalOp::Drop { name } = &rec.op {
                drop_horizon.insert(name.clone(), rec.seq);
            }
        }
        let total_records = scan.records.len();
        // The first record replay refuses, with its index.
        let mut refused: Option<(usize, WalError)> = None;
        for (idx, rec) in scan.records.into_iter().enumerate() {
            seq = seq.max(rec.seq);
            let fault = match rec.op {
                WalOp::Create { name, n, policy } => match sessions.get(&name) {
                    Some(r) if rec.seq <= r.last_seq => None,
                    Some(_) => Some(WalError::DuplicateCreate { seq: rec.seq, name }),
                    None => {
                        sessions.insert(
                            name,
                            Rebuilt {
                                dp: DynamicProfile::new(n as usize, policy.into()),
                                last_seq: rec.seq,
                                ckpt: None,
                            },
                        );
                        None
                    }
                },
                WalOp::Drop { name } => {
                    if sessions.get(&name).is_some_and(|r| rec.seq > r.last_seq) {
                        sessions.remove(&name);
                    }
                    None
                }
                op => match sessions.get_mut(op.session()) {
                    // The session these edits built was dropped later in
                    // this same log (which is why its checkpoint anchor
                    // is gone): every effect is unobservable, skipping
                    // is exact.
                    None if drop_horizon.get(op.session()).is_some_and(|&d| rec.seq < d) => None,
                    None => Some(WalError::UnknownSession {
                        seq: rec.seq,
                        name: op.session().to_owned(),
                    }),
                    Some(r) if rec.seq <= r.last_seq => None,
                    Some(r) => match op {
                        // The id is checked before the push runs, so a
                        // mismatch leaves the engine untouched.
                        WalOp::Push { voter, .. } if voter != r.dp.next_push_id() => {
                            Some(WalError::IdMismatch {
                                seq: rec.seq,
                                expected: voter,
                                found: r.dp.next_push_id(),
                            })
                        }
                        op => match apply(&mut r.dp, op) {
                            Ok(_) => {
                                r.last_seq = rec.seq;
                                None
                            }
                            Err(error) => Some(WalError::Edit {
                                seq: rec.seq,
                                error,
                            }),
                        },
                    },
                },
            };
            if let Some(fault) = fault {
                refused = Some((idx, fault));
                break;
            }
        }
        let unapplied = refused.as_ref().map_or(0, |(idx, _)| total_records - idx);
        // Surface the fault for operators without failing startup: the
        // valid prefix stands, and the compaction below resets the log.
        // A torn tail is the expected residue of a crash mid-append (the
        // partial record was never acknowledged, nothing is lost); any
        // other fault discards a suffix that may hold acknowledged
        // records, so the whole log is preserved for post-mortem before
        // compaction truncates it.
        if let Some(fault) = refused.map(|(_, fault)| fault).or(scan.corruption) {
            let tail_bytes = wal_len.saturating_sub(scan.valid_len);
            let benign_tear = matches!(fault, WalError::TornTail { .. }) && unapplied == 0;
            let preserved = if benign_tear {
                None
            } else {
                wal::preserve_corrupt(&wal_path)
            };
            let kept = match &preserved {
                Some(p) => format!("; log preserved at {}", p.display()),
                None if benign_tear => String::new(),
                None => "; log could NOT be preserved".to_owned(),
            };
            eprintln!(
                "bucketrank-server: WAL recovery truncated at a fault: {fault} \
                 ({unapplied} decoded records and {tail_bytes} trailing bytes discarded{kept})"
            );
        }

        let dur = Durability {
            dir,
            wal: WalWriter::open(&wal_path)?,
            next_file_id,
            checkpoint_every: checkpoint_every.max(1),
            since_compact: 0,
        };
        let shard = Shard::with_state(cap, global_cap, seq, Some(dur));
        let recovered = sessions.len() as u64;
        {
            let mut st = shard.state.lock().expect("shard lock");
            // Materialize every recovered session, then compact so the
            // WAL restarts empty with every checkpoint current — only
            // after that can sessions beyond the cap be evicted without
            // further writes.
            let mut names: Vec<String> = sessions.keys().cloned().collect();
            names.sort_unstable();
            for (name, r) in sessions {
                st.slots.insert(
                    name,
                    Slot::Resident {
                        session: Arc::new(Session::new(r.dp)),
                        last_seq: r.last_seq,
                        ckpt: r.ckpt,
                    },
                );
            }
            shard.compact_locked(&mut st)?;
            // Evict down to the cap, deterministically (reverse name
            // order goes to disk first); checkpoints are current, so
            // eviction here writes nothing.
            let mut resident = st.resident();
            for name in names.iter().rev() {
                if resident <= shard.cap {
                    break;
                }
                if shard.evict_one(&mut st, name).is_ok() {
                    resident -= 1;
                }
            }
        }
        shard.counters.recoveries.store(recovered, Ordering::Relaxed);
        Ok(shard)
    }

    /// The capacity rejection. The budget is enforced per shard — the
    /// global `max_sessions` is split `ceil(max_sessions / shards)`
    /// ways by the stable name hash — so the message quotes both the
    /// shard's share and the configured budget rather than implying a
    /// single global counter.
    fn capacity_message(&self) -> String {
        if self.cap == self.global_cap {
            format!("server is at its {}-session capacity", self.global_cap)
        } else {
            format!(
                "session shard is at its {}-session share of the {}-session budget \
                 (the budget is split per shard by the session-name hash)",
                self.cap, self.global_cap
            )
        }
    }

    /// The lifecycle epoch; cached `Arc<Session>`s are valid while it
    /// is unchanged.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Marks a session as just-used for LRU purposes. Lock-free.
    pub(crate) fn touch(&self, session: &Session) {
        let t = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        session.touched.store(t, Ordering::Relaxed);
    }

    /// Number of resident sessions.
    pub(crate) fn resident(&self) -> usize {
        self.state.lock().expect("shard lock").resident()
    }

    /// This shard's stats row.
    pub(crate) fn stats(&self) -> ShardStats {
        let st = self.state.lock().expect("shard lock");
        let sessions = st.resident();
        ShardStats {
            sessions: sessions as u64,
            evicted: (st.slots.len() - sessions) as u64,
            wal_records: self.counters.wal_records.load(Ordering::Relaxed),
            wal_bytes: st.dur.as_ref().map_or(0, |d| d.wal.bytes()),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            recoveries: self.counters.recoveries.load(Ordering::Relaxed),
        }
    }

    /// Creates a session (name/domain bounds are the caller's job).
    pub(crate) fn create(&self, name: &str, n: usize, policy: WirePolicy) -> Response {
        let mut st = self.state.lock().expect("shard lock");
        if st.slots.contains_key(name) {
            return error(
                ErrorCode::SessionExists,
                format!("session {name:?} already exists"),
            );
        }
        if st.resident() >= self.cap {
            // Durable shards make room by evicting; memory-only ones
            // (which have no LRU victim to write out) refuse.
            let victim = st.dur.as_ref().and_then(|_| self.lru_victim(&st));
            let Some(victim) = victim else {
                return error(ErrorCode::BadRequest, self.capacity_message());
            };
            if let Err(e) = self.evict_one(&mut st, &victim) {
                return io_response("eviction checkpoint failed", &e);
            }
        }
        let op = WalOp::Create {
            name: name.to_owned(),
            n: n as u32,
            policy,
        };
        let last_seq = match self.log(&mut st, op) {
            Ok((_, seq)) => seq,
            Err(resp) => return resp,
        };
        let session = Arc::new(Session::new(DynamicProfile::new(n, policy.into())));
        self.touch(&session);
        st.slots.insert(
            name.to_owned(),
            Slot::Resident {
                session,
                last_seq,
                ckpt: None,
            },
        );
        self.epoch.fetch_add(1, Ordering::Release);
        self.maybe_compact(&mut st);
        Response::SessionCreated
    }

    /// Drops a session, resident or evicted.
    pub(crate) fn drop_session(&self, name: &str) -> Response {
        let mut st = self.state.lock().expect("shard lock");
        let Some(slot) = st.slots.remove(name) else {
            return unknown_session(name);
        };
        let op = WalOp::Drop {
            name: name.to_owned(),
        };
        if let Err(resp) = self.log(&mut st, op) {
            // Not acknowledged: the session stays.
            st.slots.insert(name.to_owned(), slot);
            return resp;
        }
        let ckpt = match &slot {
            Slot::Resident { ckpt, .. } => *ckpt,
            Slot::Evicted { ckpt } => Some(*ckpt),
        };
        if let (Some(ck), Some(dur)) = (ckpt, st.dur.as_ref()) {
            // Safe to delete eagerly: the synced Drop record above
            // both supersedes the checkpoint (a crash before this
            // delete replays the checkpoint, then drops it) and
            // anchors any pre-drop edit records still in the log
            // (replay skips edits that precede a later Drop, so
            // losing the checkpoint cannot fault the recovery of
            // sessions logged after this one). Deleting here — not
            // in compaction's orphan sweep — also closes the window
            // where a crash between WAL truncation and the sweep
            // would resurrect the dropped session from its
            // leftover checkpoint. Best effort regardless: a
            // survivor is superseded by the Drop record until the
            // sweep removes it.
            let _ = fs::remove_file(ckpt_file(&dur.dir, ck.id));
        }
        self.epoch.fetch_add(1, Ordering::Release);
        self.maybe_compact(&mut st);
        Response::SessionDropped
    }

    /// Runs one edit request (`PushVoter`, `RemoveVoter` or
    /// `ReplaceVoter`): resolve the session (faulting an evicted one
    /// back in), build the op it logs, let the engine check it, log it
    /// ahead of the state change, apply, publish. A refused edit logs
    /// nothing and leaves every layer untouched.
    pub(crate) fn edit(&self, req: Request) -> Response {
        let mut op = match req {
            Request::PushVoter { session, ranking } => WalOp::Push {
                name: session,
                voter: 0,
                ranking,
            },
            Request::RemoveVoter { session, voter } => WalOp::Remove {
                name: session,
                voter,
            },
            Request::ReplaceVoter {
                session,
                voter,
                ranking,
            } => WalOp::Replace {
                name: session,
                voter,
                ranking,
            },
            _ => return error(ErrorCode::BadRequest, "not an edit request"),
        };
        let mut st = self.state.lock().expect("shard lock");
        let session = match self.resolve_locked(&mut st, op.session()) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        self.touch(&session);
        let mut dp = session.profile.lock().expect("edit lock");
        if let WalOp::Push { voter, .. } = &mut op {
            *voter = dp.next_push_id();
        }
        if let Err(e) = check(&dp, &op) {
            return agg_error(&e);
        }
        let (op, seq) = match self.log(&mut st, op) {
            Ok(logged) => logged,
            Err(resp) => return resp,
        };
        if let Some(Slot::Resident { last_seq, .. }) = st.slots.get_mut(op.session()) {
            *last_seq = seq;
        }
        // The engine vetted the op above, so this cannot fail; answered
        // typed regardless.
        let reply = match apply(&mut dp, op) {
            Ok(reply) => {
                session.publish(&dp);
                reply
            }
            Err(e) => agg_error(&e),
        };
        drop(dp);
        self.maybe_compact(&mut st);
        reply
    }

    /// Resolves a session for a read or pair-metric, faulting an
    /// evicted one back in.
    pub(crate) fn resolve(&self, name: &str) -> Result<Arc<Session>, Response> {
        let mut st = self.state.lock().expect("shard lock");
        let session = self.resolve_locked(&mut st, name)?;
        self.touch(&session);
        Ok(session)
    }

    fn resolve_locked(
        &self,
        st: &mut ShardState,
        name: &str,
    ) -> Result<Arc<Session>, Response> {
        match st.slots.get(name) {
            None => Err(unknown_session(name)),
            Some(Slot::Resident { session, .. }) => Ok(Arc::clone(session)),
            Some(Slot::Evicted { ckpt }) => {
                let ck = *ckpt;
                if st.resident() >= self.cap {
                    if let Some(victim) = self.lru_victim(st) {
                        self.evict_one(st, &victim)
                            .map_err(|e| io_response("eviction checkpoint failed", &e))?;
                    }
                }
                let dur = st.dur.as_ref().expect("evicted slots require durability");
                let restored = match Checkpoint::read(&ckpt_file(&dur.dir, ck.id))
                    .map_err(|e| io_response("checkpoint read failed", &e))?
                {
                    Ok(loaded) => restore(loaded).map_err(|e| e.to_string()),
                    Err(e) => Err(e.to_string()),
                };
                let dp = restored.map_err(|e| {
                    error(
                        ErrorCode::BadRequest,
                        format!("session {name:?} failed to restore: {e}"),
                    )
                })?;
                let session = Arc::new(Session::new(dp));
                st.slots.insert(
                    name.to_owned(),
                    Slot::Resident {
                        session: Arc::clone(&session),
                        last_seq: ck.seq,
                        ckpt: Some(ck),
                    },
                );
                self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                self.epoch.fetch_add(1, Ordering::Release);
                Ok(session)
            }
        }
    }

    /// The resident session least recently touched.
    fn lru_victim(&self, st: &ShardState) -> Option<String> {
        st.slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Resident { session, .. } => {
                    Some((session.touched.load(Ordering::Relaxed), name))
                }
                Slot::Evicted { .. } => None,
            })
            .min()
            .map(|(_, name)| name.clone())
    }

    /// Evicts one resident session: checkpoint (unless the on-disk one
    /// is already current), then flip the slot to `Evicted`.
    fn evict_one(&self, st: &mut ShardState, name: &str) -> io::Result<()> {
        let Some(Slot::Resident {
            session,
            last_seq,
            ckpt,
        }) = st.slots.get(name)
        else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "evict target is not resident",
            ));
        };
        let (session, last_seq, old) = (Arc::clone(session), *last_seq, *ckpt);
        let fresh = match old {
            Some(ck) if ck.seq == last_seq => ck,
            _ => self.write_checkpoint(st, name, &session, last_seq, old)?,
        };
        st.slots
            .insert(name.to_owned(), Slot::Evicted { ckpt: fresh });
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Writes a fresh checkpoint file for `session`, deletes the file
    /// it supersedes (`old`, best effort) and returns its reference.
    /// Takes the profile mutex (inner lock).
    fn write_checkpoint(
        &self,
        st: &mut ShardState,
        name: &str,
        session: &Session,
        last_seq: u64,
        old: Option<CkptRef>,
    ) -> io::Result<CkptRef> {
        let dur = st.dur.as_mut().expect("checkpoint requires durability");
        let id = dur.next_file_id;
        let path = ckpt_file(&dur.dir, id);
        let bytes = {
            let dp = session.profile.lock().expect("edit lock");
            Checkpoint {
                name: name.to_owned(),
                n: dp.len() as u32,
                policy: dp.policy().into(),
                next_id: dp.next_push_id(),
                last_seq,
                voters: dp
                    .voter_ids()
                    .into_iter()
                    .map(|vid| (vid.raw(), dp.get_voter(vid).expect("live voter").clone()))
                    .collect(),
            }
            .encode()
        };
        wal::write_atomic(&path, &bytes)?;
        dur.next_file_id += 1;
        if let Some(prev) = old {
            let _ = fs::remove_file(ckpt_file(&dur.dir, prev.id));
        }
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(CkptRef { id, seq: last_seq })
    }

    /// Logs `op` as the shard's next record, synced before return, and
    /// hands it back with its sequence number. Memory-only shards log
    /// nothing and answer sequence number 0. A failed append is the
    /// typed reply to send, and the edit must not be applied.
    fn log(&self, st: &mut ShardState, op: WalOp) -> Result<(WalOp, u64), Response> {
        let Some(dur) = st.dur.as_mut() else {
            return Ok((op, 0));
        };
        let rec = WalRecord {
            seq: st.seq + 1,
            op,
        };
        if let Err(e) = dur.wal.append(&rec) {
            return Err(io_response("write-ahead log append failed", &e));
        }
        dur.since_compact += 1;
        st.seq = rec.seq;
        self.counters.wal_records.fetch_add(1, Ordering::Relaxed);
        Ok((rec.op, rec.seq))
    }

    /// Compacts when the countdown says so. Compaction failures are
    /// swallowed (the WAL simply keeps growing — correctness never
    /// depends on compaction happening).
    fn maybe_compact(&self, st: &mut ShardState) {
        let due = match st.dur.as_ref() {
            Some(d) => d.since_compact >= d.checkpoint_every,
            None => false,
        };
        if due {
            let _ = self.compact_locked(st);
        }
    }

    /// Checkpoints every stale session, truncates the WAL to empty,
    /// and sweeps checkpoint files no slot references.
    fn compact_locked(&self, st: &mut ShardState) -> io::Result<()> {
        if st.dur.is_none() {
            return Ok(());
        }
        // Checkpoint sessions whose on-disk state lags their last
        // applied record; everything else is already current.
        let stale: Vec<(String, Arc<Session>, u64, Option<CkptRef>)> = st
            .slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Resident {
                    session,
                    last_seq,
                    ckpt,
                } if ckpt.is_none_or(|c| c.seq < *last_seq) => {
                    Some((name.clone(), Arc::clone(session), *last_seq, *ckpt))
                }
                _ => None,
            })
            .collect();
        for (name, session, last_seq, old) in stale {
            let fresh = self.write_checkpoint(st, &name, &session, last_seq, old)?;
            if let Some(Slot::Resident { ckpt, .. }) = st.slots.get_mut(&name) {
                *ckpt = Some(fresh);
            }
        }
        // Every slot now has a current checkpoint (or no edits at all
        // — impossible for durable slots past this point), so the log
        // is redundant.
        let dur = st.dur.as_mut().expect("checked above");
        dur.wal.truncate_to(0)?;
        dur.since_compact = 0;
        // Orphan sweep: files superseded by crashes or failed deletes.
        let referenced: HashSet<u64> = st
            .slots
            .values()
            .filter_map(|slot| match slot {
                Slot::Resident { ckpt, .. } => ckpt.map(|c| c.id),
                Slot::Evicted { ckpt } => Some(ckpt.id),
            })
            .collect();
        let dur = st.dur.as_ref().expect("checked above");
        if let Ok(entries) = fs::read_dir(&dur.dir) {
            for path in entries.flatten().map(|e| e.path()) {
                if ckpt_id(&path).is_some_and(|id| !referenced.contains(&id)) {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(())
    }
}
