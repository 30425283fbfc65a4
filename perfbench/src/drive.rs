//! The closed-loop clients and the server's lifecycle around them:
//! set-up, timed windows, output checks and the durable restart.

use bucketrank_server::{
    Request, Response, Server, ServerConfig, ServerStats, ShardStats, WirePolicy,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::conn::Conn;
use crate::mirror::{apply_ack, Mirror, View};
use crate::workload::{session_of, Gen, OpKind, Spec, KINDS, K_MAX, WORKERS};
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};

/// Set-up ops per `Batch` frame (creates and seed pushes).
const SETUP_BATCH: usize = 32;

/// The run's clock: ns since the run began.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// ns since the start.
    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).expect("runs last less than 584 years")
    }
}

/// FNV-1a over a reply body: the traced run keeps this instead of the
/// body, and the replay compares its own encoded reply against it.
pub fn body_hash(body: &[u8]) -> u64 {
    body.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One frame as sent, kept by a traced run for the replay.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The ops, in order.
    pub ops: Vec<Request>,
    /// Sent as a v2 `Batch` frame (else one v1 frame, one op).
    pub batch: bool,
    /// Op id of `ops[0]`; the rest follow consecutively.
    pub first_op: u64,
    /// Part of the traced window (else set-up, replayed untimed).
    pub timed: bool,
    /// Send time on the run's clock.
    pub sent: u64,
    /// Reply time on the run's clock.
    pub done: u64,
    /// [`body_hash`] of each op's reply body.
    pub reply_hash: Vec<u64>,
}

/// Why an op failed.
#[derive(Debug, Clone, Copy)]
pub enum Cause {
    /// A typed error reply (or one that does not decode).
    Typed,
    /// A `Busy` reply.
    Busy,
    /// No reply: the connection was lost.
    Lost,
}

/// What a phase does with the ops it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Set-up and warm-up: not counted, failures are check failures.
    Setup,
    /// A timed window.
    Window,
}

/// One client thread's state, carried across phases.
pub struct ClientState {
    gen: Gen,
    /// Acknowledged state of the client's sessions.
    mirror: Mirror,
    conn: Option<Conn>,
    phase: Phase,
    /// Keep frames for the replay.
    pub record: bool,
    /// Frames kept for the replay.
    pub log: Vec<Frame>,
    next_op: u64,
    /// Ops attempted in timed windows, per [`OpKind::index`].
    pub attempted: [u64; KINDS],
    /// Ops failed in timed windows, per [`OpKind::index`].
    pub failed: [u64; KINDS],
    /// Ops failed in timed windows, per [`Cause`].
    pub failed_by: [u64; 3],
    /// Read round trips as (reply time, µs), one per read op.
    pub read_us: Vec<(u64, f64)>,
    /// Edit round trips as (reply time, µs), one per acknowledged edit.
    pub edit_us: Vec<(u64, f64)>,
    /// `Batch` frame round trips as (reply time, µs).
    pub frame_us: Vec<(u64, f64)>,
    /// Read replies kept for checking after the window: a uniform
    /// sample of every read of the run (reservoir sampling).
    pub samples: Vec<(View, Request, Response)>,
    sample_cap: usize,
    sample_rng: Pcg32,
    reads_seen: u64,
    /// Output-check failures.
    pub mismatches: Vec<String>,
}

impl ClientState {
    fn new(spec: Spec, idx: usize, seed: u64, record: bool) -> ClientState {
        // Checking a sample at n = 512 rebuilds a profile (~10 ms), so
        // large workloads keep fewer.
        let sample_cap = if spec.n > 64 { 40 } else { 400 };
        ClientState {
            gen: Gen::new(spec, idx, seed),
            mirror: Mirror::new(),
            conn: None,
            phase: Phase::Setup,
            record,
            log: Vec::new(),
            next_op: (idx as u64) << 40,
            attempted: [0; KINDS],
            failed: [0; KINDS],
            failed_by: [0; 3],
            read_us: Vec::new(),
            edit_us: Vec::new(),
            frame_us: Vec::new(),
            samples: Vec::new(),
            sample_cap,
            sample_rng: Pcg32::seed_from_u64(seed ^ 0x05A3_D1E5 ^ idx as u64),
            reads_seen: 0,
            mismatches: Vec::new(),
        }
    }

    /// Completed (not failed) window ops.
    pub fn completed(&self) -> u64 {
        self.attempted.iter().sum::<u64>() - self.failed.iter().sum::<u64>()
    }

    fn fail(&mut self, req: &Request, cause: Cause, why: &str) {
        match self.phase {
            Phase::Window => {
                self.failed[OpKind::of(req).index()] += 1;
                self.failed_by[cause as usize] += 1;
            }
            Phase::Setup => self
                .mismatches
                .push(format!("set-up op failed ({why}): {req:?}")),
        }
    }

    /// Accounts for one op's reply body.
    fn settle(&mut self, req: &Request, body: &[u8], done: u64, rtt_us: f64) {
        let kind = OpKind::of(req);
        if self.phase == Phase::Window {
            self.attempted[kind.index()] += 1;
        }
        let resp = match Response::decode(body) {
            Ok(Response::Busy) => return self.fail(req, Cause::Busy, "busy"),
            Ok(Response::Error { code, .. }) => {
                return self.fail(req, Cause::Typed, &format!("{code:?}"))
            }
            Ok(r) => r,
            Err(_) => return self.fail(req, Cause::Typed, "undecodable reply"),
        };
        if kind.is_edit() || kind == OpKind::Other {
            if let Err(m) = apply_ack(&mut self.mirror, req, &resp) {
                self.mismatches.push(m);
            } else if self.phase == Phase::Window {
                self.edit_us.push((done, rtt_us));
            }
            return;
        }
        if self.phase == Phase::Window {
            self.read_us.push((done, rtt_us));
        }
        self.reads_seen += 1;
        let slot = if self.samples.len() < self.sample_cap {
            self.samples.len()
        } else {
            self.sample_rng.gen_range(0..self.reads_seen) as usize
        };
        if slot < self.sample_cap {
            let kept = (self.mirror[session_of(req)].view(), req.clone(), resp);
            if slot == self.samples.len() {
                self.samples.push(kept);
            } else {
                self.samples[slot] = kept;
            }
        }
    }

    /// Counts every op of a frame that got no reply as failed.
    fn fail_all(&mut self, ops: &[Request], why: &str) {
        for op in ops {
            self.fail(op, Cause::Lost, why);
        }
    }

    fn keep(
        &mut self,
        ops: Vec<Request>,
        batch: bool,
        first_op: u64,
        sent: u64,
        done: u64,
        bodies: &[Vec<u8>],
    ) {
        if self.record {
            self.log.push(Frame {
                ops,
                batch,
                first_op,
                timed: self.phase == Phase::Window,
                sent,
                done,
                reply_hash: bodies.iter().map(|b| body_hash(b)).collect(),
            });
        }
    }

    fn take_ids(&mut self, count: usize) -> u64 {
        let first = self.next_op;
        self.next_op += count as u64;
        first
    }

    /// One v1 frame, waiting for its reply.
    fn call_one(&mut self, clock: Clock, req: Request) {
        let first = self.take_ids(1);
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let t0 = clock.now();
        let reply = conn.call(&req);
        let t1 = clock.now();
        match reply {
            Ok(body) => {
                self.settle(&req, &body, t1, (t1 - t0) as f64 / 1e3);
                self.keep(vec![req], false, first, t0, t1, &[body]);
            }
            Err(e) => {
                self.fail_all(&[req], &format!("connection lost: {e}"));
                self.conn = None;
            }
        }
    }

    /// One `Batch` frame, waiting for its reply (set-up only).
    fn call_batch(&mut self, clock: Clock, ops: Vec<Request>) {
        let first = self.take_ids(ops.len());
        let Some(conn) = self.conn.as_mut() else {
            return;
        };
        let t0 = clock.now();
        let reply = conn
            .send_batch(&ops)
            .and_then(|()| conn.recv_batch(ops.len()));
        let t1 = clock.now();
        match reply {
            Ok(bodies) => {
                for (op, body) in ops.iter().zip(&bodies) {
                    self.settle(op, body, t1, (t1 - t0) as f64 / 1e3);
                }
                self.keep(ops, true, first, t0, t1, &bodies);
            }
            Err(e) => {
                self.fail_all(&ops, &format!("connection lost: {e}"));
                self.conn = None;
            }
        }
    }

    /// Runs the workload's closed loop until `stop` says so.
    fn run_loop(&mut self, clock: Clock, spec: &Spec, stop: Stop) {
        match spec.batch {
            None => {
                let mut done = 0;
                while self.conn.is_some() && !stop.reached(clock, done) {
                    let req = self.gen.next(&self.mirror);
                    self.call_one(clock, req);
                    done += 1;
                }
            }
            Some((per_frame, depth)) => self.run_pipelined(clock, stop, per_frame, depth),
        }
    }

    /// Keeps `depth` `Batch` frames of `per_frame` ops outstanding.
    /// Only replace-only mixes are pipelined: voter ids never change,
    /// so ops generated ahead of their predecessors' replies stay valid.
    fn run_pipelined(&mut self, clock: Clock, stop: Stop, per_frame: usize, depth: usize) {
        let Some(mut conn) = self.conn.take() else {
            return;
        };
        let mut inflight: VecDeque<(Vec<Request>, u64, u64)> = VecDeque::new();
        let mut sent_frames = 0;
        let lost = loop {
            let sending = !stop.reached(clock, sent_frames);
            if !inflight.is_empty() && (inflight.len() >= depth || !sending) {
                let (ops, sent, first) = inflight.pop_front().expect("nonempty");
                let reply = conn.recv_batch(ops.len());
                let done = clock.now();
                let rtt = (done - sent) as f64 / 1e3;
                match reply {
                    Ok(bodies) => {
                        for (op, body) in ops.iter().zip(&bodies) {
                            self.settle(op, body, done, rtt);
                        }
                        if self.phase == Phase::Window {
                            self.frame_us.push((done, rtt));
                        }
                        self.keep(ops, true, first, sent, done, &bodies);
                    }
                    Err(e) => break Some((ops, format!("connection lost: {e}"))),
                }
                continue;
            }
            if !sending {
                break None;
            }
            let ops: Vec<Request> = (0..per_frame)
                .map(|_| self.gen.next(&self.mirror))
                .collect();
            let first = self.take_ids(ops.len());
            let sent = clock.now();
            if let Err(e) = conn.send_batch(&ops) {
                break Some((ops, format!("connection lost: {e}")));
            }
            inflight.push_back((ops, sent, first));
            sent_frames += 1;
        };
        match lost {
            None => self.conn = Some(conn),
            Some((ops, why)) => {
                self.fail_all(&ops, &why);
                for (ops, _, _) in inflight {
                    self.fail_all(&ops, &why);
                }
            }
        }
    }

    /// Creates and seeds the client's sessions, then warms up.
    fn setup(
        &mut self,
        clock: Clock,
        spec: &Spec,
        addr: std::net::SocketAddr,
    ) -> Result<(), String> {
        self.conn = Some(Conn::connect(addr, spec.poll).map_err(|e| format!("connect: {e}"))?);
        self.phase = Phase::Setup;
        let mut sessions: Vec<(String, usize, usize)> = self
            .gen
            .sessions()
            .iter()
            .map(|s| (s.clone(), spec.n, spec.seed_voters))
            .collect();
        if let (Some(side), Some(mm)) = (self.gen.side(), spec.minmax) {
            sessions.push((side.to_owned(), mm.n, mm.voters));
        }
        let creates: Vec<Request> = sessions
            .iter()
            .map(|(name, n, _)| Request::CreateSession {
                name: name.clone(),
                n: *n as u32,
                policy: WirePolicy::Lower,
            })
            .collect();
        for chunk in creates.chunks(SETUP_BATCH) {
            self.call_batch(clock, chunk.to_vec());
        }
        let mut pushes = Vec::new();
        for (name, n, m) in &sessions {
            for _ in 0..*m {
                pushes.push(Request::PushVoter {
                    session: name.clone(),
                    ranking: self.gen.ranking(*n),
                });
            }
        }
        for chunk in pushes.chunks(SETUP_BATCH) {
            self.call_batch(clock, chunk.to_vec());
        }
        self.run_loop(clock, spec, Stop::Ops(spec.warmup));
        match (&self.conn, self.mismatches.first()) {
            (Some(_), None) => Ok(()),
            (_, Some(m)) => Err(m.clone()),
            (None, None) => Err("connection lost during set-up".to_owned()),
        }
    }

    /// Asks the server for every owned session's median order, top-k
    /// and Kemeny cost and checks each against the mirror.
    fn check_all(&mut self, spec: &Spec, addr: std::net::SocketAddr, label: &str) {
        if self.conn.is_none() {
            match Conn::connect(addr, spec.poll) {
                Ok(c) => self.conn = Some(c),
                Err(e) => return self.mismatches.push(format!("check connect: {e}")),
            }
        }
        let mut conn = self.conn.take().expect("connected above");
        let mut names: Vec<String> = self.mirror.keys().cloned().collect();
        names.sort();
        for name in names {
            let n = self.mirror[&name].n;
            let view = self.mirror[&name].view();
            let reads = [
                Request::MedianOrder {
                    session: name.clone(),
                },
                Request::TopK {
                    session: name.clone(),
                    k: K_MAX.min(n) as u32,
                },
                Request::KemenyCost {
                    session: name.clone(),
                    candidate: self.gen.ranking(n),
                },
            ];
            for req in reads {
                match conn.call_decoded(&req) {
                    Ok(got) => {
                        if let Err(m) = view.check(&req, &got) {
                            self.mismatches.push(format!("{label}: {m}"));
                        }
                    }
                    Err(e) => self.mismatches.push(format!("{label} {req:?}: {e}")),
                }
            }
        }
        self.conn = Some(conn);
    }

    /// Checks the read replies sampled during the window.
    fn check_samples(&mut self) {
        for (view, req, got) in std::mem::take(&mut self.samples) {
            if let Err(m) = view.check(&req, &got) {
                self.mismatches.push(format!("sampled read: {m}"));
            }
        }
    }
}

/// When a loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At this time on the run's clock.
    At(u64),
    /// After this many ops (frames, when batched).
    Ops(usize),
}

impl Stop {
    fn reached(self, clock: Clock, done: usize) -> bool {
        match self {
            Stop::At(t) => clock.now() >= t,
            Stop::Ops(n) => done >= n,
        }
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn server_config(spec: &Spec, data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_sessions: spec.max_sessions,
        data_dir,
        ..ServerConfig::default()
    }
}

/// Removes a directory tree if it exists.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// A served workload: the server and its clients.
pub struct Served {
    server: Option<Server>,
    /// One state per client thread.
    pub clients: Vec<ClientState>,
    /// The durable data directory, if any.
    data_dir: Option<PathBuf>,
    clock: Clock,
    spec: Spec,
}

/// Counter deltas over one window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deltas {
    /// `rejected_busy` delta.
    pub busy: u64,
    /// `protocol_errors` delta.
    pub protocol_errors: u64,
    /// Summed `ShardStats` deltas (`sessions`/`evicted` are end gauges).
    pub shards: ShardStats,
}

/// What one timed window measured.
#[derive(Debug, Clone, Copy)]
pub struct WindowResult {
    /// Window length including the drain of pipelined replies, s.
    pub seconds: f64,
    /// Start on the run's clock, ns.
    pub start: u64,
    /// End on the run's clock, ns.
    pub end: u64,
    /// Attempted ops.
    pub attempted: u64,
    /// Completed ops.
    pub completed: u64,
    /// Counter deltas.
    pub deltas: Deltas,
}

fn sum_shards(rows: &[ShardStats]) -> ShardStats {
    rows.iter().fold(ShardStats::default(), |a, r| ShardStats {
        sessions: a.sessions + r.sessions,
        evicted: a.evicted + r.evicted,
        wal_records: a.wal_records + r.wal_records,
        wal_bytes: a.wal_bytes + r.wal_bytes,
        checkpoints: a.checkpoints + r.checkpoints,
        evictions: a.evictions + r.evictions,
        recoveries: a.recoveries + r.recoveries,
    })
}

impl Served {
    /// Binds a server and runs every client's set-up (create, seed,
    /// warm-up) in parallel. Returns the set-up time in seconds: bind
    /// through the end of warm-up.
    pub fn setup(
        spec: Spec,
        seed: u64,
        work_dir: &Path,
        record: bool,
        clock: Clock,
    ) -> Result<(Served, f64), String> {
        let data_dir = spec.durable.then(|| work_dir.join("data"));
        if let Some(d) = &data_dir {
            clear_dir(d)?;
        }
        let t0 = Instant::now();
        let server = Server::bind("127.0.0.1:0", server_config(&spec, data_dir.clone()))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let mut clients: Vec<ClientState> = (0..spec.clients)
            .map(|c| ClientState::new(spec, c, seed, record))
            .collect();
        let results: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| s.spawn(move || c.setup(clock, &spec, addr)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up thread panicked"))
                .collect()
        });
        let secs = t0.elapsed().as_secs_f64();
        results.into_iter().collect::<Result<Vec<()>, String>>()?;
        Ok((
            Served {
                server: Some(server),
                clients,
                data_dir,
                clock,
                spec,
            },
            secs,
        ))
    }

    fn counters(&mut self) -> Result<(ServerStats, ShardStats), String> {
        let conn = self.clients[0]
            .conn
            .as_mut()
            .ok_or("client 0 lost its connection")?;
        let rows = match conn.call_decoded(&Request::Stats)? {
            Response::Stats { shards } => shards,
            other => return Err(format!("stats answered {other:?}")),
        };
        let stats = self.server().stats();
        Ok((stats, sum_shards(&rows)))
    }

    /// Runs every client's closed loop for `seconds`.
    pub fn window(&mut self, seconds: f64, record: bool) -> Result<WindowResult, String> {
        let (s0, h0) = self.counters()?;
        let before: u64 = self.clients.iter().map(ClientState::completed).sum();
        let tried = |cs: &[ClientState]| {
            cs.iter()
                .map(|c| c.attempted.iter().sum::<u64>())
                .sum::<u64>()
        };
        let tried_before = tried(&self.clients);
        let clock = self.clock;
        let spec = self.spec;
        let start = clock.now();
        let stop = Stop::At(start + (seconds * 1e9) as u64);
        std::thread::scope(|s| {
            for c in self.clients.iter_mut() {
                c.phase = Phase::Window;
                c.record = record;
                s.spawn(move || c.run_loop(clock, &spec, stop));
            }
        });
        let end = clock.now();
        let (s1, h1) = self.counters()?;
        let completed = self.clients.iter().map(ClientState::completed).sum::<u64>() - before;
        Ok(WindowResult {
            seconds: (end - start) as f64 / 1e9,
            start,
            end,
            attempted: tried(&self.clients) - tried_before,
            completed,
            deltas: Deltas {
                busy: s1.rejected_busy - s0.rejected_busy,
                protocol_errors: s1.protocol_errors - s0.protocol_errors,
                shards: ShardStats {
                    sessions: h1.sessions,
                    evicted: h1.evicted,
                    wal_records: h1.wal_records - h0.wal_records,
                    wal_bytes: h1.wal_bytes,
                    checkpoints: h1.checkpoints - h0.checkpoints,
                    evictions: h1.evictions - h0.evictions,
                    recoveries: h1.recoveries - h0.recoveries,
                },
            },
        })
    }

    /// Checks the sampled replies (once) and every session's final
    /// state, on one thread per client; `label` names the check in
    /// failure reports.
    pub fn check(&mut self, label: &str) {
        let addr = self.server().local_addr();
        let spec = self.spec;
        std::thread::scope(|s| {
            for c in self.clients.iter_mut() {
                s.spawn(move || {
                    c.check_samples();
                    c.check_all(&spec, addr, label);
                });
            }
        });
    }

    /// Shuts the server down and binds a fresh one over the same data
    /// directory. Returns the recovery time in seconds: from the bind
    /// until a first read is answered.
    pub fn restart(&mut self) -> Result<f64, String> {
        let dir = self
            .data_dir
            .clone()
            .ok_or("restart needs a data directory")?;
        for c in &mut self.clients {
            c.conn = None;
        }
        if let Some(old) = self.server.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let server = Server::bind("127.0.0.1:0", server_config(&self.spec, Some(dir)))
            .map_err(|e| format!("rebind: {e}"))?;
        let session = self.clients[0].gen.sessions()[0].clone();
        let mut conn =
            Conn::connect(server.local_addr(), self.spec.poll).map_err(|e| e.to_string())?;
        let reply = conn.call_decoded(&Request::MedianOrder { session });
        let secs = t0.elapsed().as_secs_f64();
        self.server = Some(server);
        self.clients[0].conn = Some(conn);
        match reply? {
            Response::Ranking { .. } => Ok(secs),
            other => Err(format!("first read after restart answered {other:?}")),
        }
    }

    /// Gathers every client's failures into one list.
    pub fn mismatches(&self) -> Vec<String> {
        self.clients
            .iter()
            .flat_map(|c| c.mismatches.iter().cloned())
            .collect()
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server is running")
    }

    /// Stops the server, waiting for every thread.
    pub fn shutdown(mut self) {
        for c in &mut self.clients {
            c.conn = None;
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
