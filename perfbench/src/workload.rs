//! The three workloads and the seeded op generator behind them.
//!
//! Every input the server receives comes from a [`Pcg32`] seeded by
//! the run's `--seed` and the client index, and from a [`ZipfSampler`]
//! over the client's own sessions. Clients own disjoint sessions, so
//! the edit order within each session is the client's own send order
//! and the client's mirror of it is exact.

use bucketrank_core::BucketOrder;
use bucketrank_server::{MetricKind, Request};
use bucketrank_workloads::random::{random_few_valued, ZipfSampler};
use bucketrank_workloads::rng::{Pcg32, Rng, SeedableRng};

use crate::mirror::Mirror;

/// Every op class the generator issues; attempts and failures are
/// counted per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `PushVoter`.
    Push,
    /// `ReplaceVoter`.
    Replace,
    /// `RemoveVoter`.
    Remove,
    /// `MedianOrder`.
    Median,
    /// `TopK`.
    TopK,
    /// `KemenyCost`.
    Kemeny,
    /// `PairMetric` with one of the four metrics.
    Pair(MetricKind),
    /// `WeightedDist`.
    Weighted,
    /// `TopDiff`.
    TopDiff,
    /// `MinMaxAgg`.
    MinMax,
    /// Session lifecycle and anything else (set-up only).
    Other,
}

/// Number of distinct [`OpKind::index`] values.
pub const KINDS: usize = 14;

impl OpKind {
    /// The class of a request.
    pub fn of(req: &Request) -> OpKind {
        match req {
            Request::PushVoter { .. } => OpKind::Push,
            Request::ReplaceVoter { .. } => OpKind::Replace,
            Request::RemoveVoter { .. } => OpKind::Remove,
            Request::MedianOrder { .. } => OpKind::Median,
            Request::TopK { .. } => OpKind::TopK,
            Request::KemenyCost { .. } => OpKind::Kemeny,
            Request::PairMetric { metric, .. } => OpKind::Pair(*metric),
            Request::WeightedDist { .. } => OpKind::Weighted,
            Request::TopDiff { .. } => OpKind::TopDiff,
            Request::MinMaxAgg { .. } => OpKind::MinMax,
            _ => OpKind::Other,
        }
    }

    /// Whether the op changes a session.
    pub fn is_edit(self) -> bool {
        matches!(self, OpKind::Push | OpKind::Replace | OpKind::Remove)
    }

    /// Dense index for per-class counters.
    pub fn index(self) -> usize {
        match self {
            OpKind::Push => 0,
            OpKind::Replace => 1,
            OpKind::Remove => 2,
            OpKind::Median => 3,
            OpKind::TopK => 4,
            OpKind::Kemeny => 5,
            OpKind::Pair(MetricKind::KprofX2) => 6,
            OpKind::Pair(MetricKind::FprofX2) => 7,
            OpKind::Pair(MetricKind::KhausX2) => 8,
            OpKind::Pair(MetricKind::FhausX2) => 9,
            OpKind::Weighted => 10,
            OpKind::TopDiff => 11,
            OpKind::MinMax => 12,
            OpKind::Other => 13,
        }
    }

    /// Label for per-class report lines, by [`OpKind::index`].
    pub const LABELS: [&'static str; KINDS] = [
        "push", "replace", "remove", "median", "top_k", "kemeny", "kprof", "fprof", "khaus",
        "fhaus", "weighted", "top_diff", "minmax", "other",
    ];
}

/// The session a request addresses (empty for session-less requests).
pub fn session_of(req: &Request) -> &str {
    match req {
        Request::CreateSession { name, .. } | Request::DropSession { name } => name,
        Request::PushVoter { session, .. }
        | Request::RemoveVoter { session, .. }
        | Request::ReplaceVoter { session, .. }
        | Request::MedianOrder { session }
        | Request::TopK { session, .. }
        | Request::KemenyCost { session, .. }
        | Request::PairMetric { session, .. }
        | Request::WeightedDist { session, .. }
        | Request::TopDiff { session, .. }
        | Request::MinMaxAgg { session, .. } => session,
        _ => "",
    }
}

/// Every read class, for workloads that spread reads over all of them.
const ALL_READS: &[OpKind] = &[
    OpKind::Median,
    OpKind::TopK,
    OpKind::Kemeny,
    OpKind::Pair(MetricKind::KprofX2),
    OpKind::Pair(MetricKind::FprofX2),
    OpKind::Pair(MetricKind::KhausX2),
    OpKind::Pair(MetricKind::FhausX2),
    OpKind::Weighted,
    OpKind::TopDiff,
];

/// The side sessions `MinMaxAgg` runs on: the heuristic costs ~1 ms at
/// this size and over a second at n = 512, m = 32.
#[derive(Debug, Clone, Copy)]
pub struct MinMaxSide {
    /// Domain size.
    pub n: usize,
    /// Voters seeded (never edited).
    pub voters: usize,
    /// Share of ops, per mille.
    pub per_mille: u32,
}

/// Largest `k` of a `TopK` read.
pub const K_MAX: usize = 10;

/// Server worker threads: the machine's two cores.
pub const WORKERS: usize = 2;

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Domain size of the main sessions.
    pub n: usize,
    /// Main sessions across all clients.
    pub sessions: usize,
    /// Live voters per session are kept in `lo..=hi` by the edit mix.
    pub voters: (usize, usize),
    /// Voters pushed per session during set-up.
    pub seed_voters: usize,
    /// Distinct keys per generated ranking (fewer means more ties).
    pub buckets: usize,
    /// Zipf exponent of session popularity within a client.
    pub zipf: f64,
    /// Durable: a data directory, WAL fsync per edit, eviction.
    pub durable: bool,
    /// The server's resident-session budget.
    pub max_sessions: usize,
    /// Share of ops that edit, in percent.
    pub edit_pct: f64,
    /// Edits only replace voters (ids never change, so a pipelined
    /// client can generate ahead of its replies).
    pub replace_only: bool,
    /// Read classes, drawn uniformly.
    pub reads: &'static [OpKind],
    /// `Some((ops per Batch frame, frames outstanding))` for the
    /// batched client; `None` sends one op per frame and waits.
    pub batch: Option<(usize, usize)>,
    /// Optional `MinMaxAgg` side sessions.
    pub minmax: Option<MinMaxSide>,
    /// Ops (or frames, when batched) each client runs as warm-up.
    pub warmup: usize,
    /// Client threads, one connection each.
    pub clients: usize,
    /// Clients poll for replies instead of blocking (see `conn`): for
    /// workloads whose server threads would otherwise sleep between
    /// requests.
    pub poll: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 3] = [
    // Transport-bound: every kernel call is a few µs against a ~100 µs
    // loopback round trip, across a session table of ~1k entries. One
    // polling client: two made the round trip bimodal (see README.md).
    Spec {
        name: "small_interactive",
        n: 32,
        sessions: 1024,
        voters: (4, 12),
        seed_voters: 8,
        buckets: 8,
        zipf: 1.1,
        durable: false,
        max_sessions: 4096,
        edit_pct: 10.0,
        replace_only: false,
        reads: ALL_READS,
        batch: None,
        minmax: None,
        warmup: 300,
        clients: 1,
        poll: true,
    },
    // Engine-, WAL- and eviction-bound: n = 512 edits with an fsync
    // each, over more sessions than stay resident; no tally consumer.
    Spec {
        name: "large_durable_edits",
        n: 512,
        sessions: 20,
        voters: (16, 32),
        seed_voters: 20,
        buckets: 32,
        zipf: 2.0,
        durable: true,
        max_sessions: 16,
        edit_pct: 80.0,
        replace_only: false,
        reads: &[OpKind::Median, OpKind::TopK],
        batch: None,
        minmax: None,
        warmup: 30,
        clients: 2,
        poll: true,
    },
    // Kernel-bound: batching amortises transport, reads consume the
    // tally and the pairwise kernels beside a trickle of edits.
    Spec {
        name: "large_batched_analytics",
        n: 512,
        sessions: 8,
        voters: (32, 32),
        seed_voters: 32,
        buckets: 32,
        zipf: 1.1,
        durable: false,
        max_sessions: 64,
        edit_pct: 5.0,
        replace_only: true,
        reads: ALL_READS,
        batch: Some((16, 4)),
        minmax: Some(MinMaxSide {
            n: 32,
            voters: 8,
            per_mille: 5,
        }),
        warmup: 8,
        clients: 2,
        poll: false,
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same traffic shape at toy sizes, for the smoke tests.
    pub fn tiny(mut self) -> Spec {
        self.n = self.n.min(16);
        self.sessions = self.sessions.min(6);
        self.max_sessions = if self.durable { 4 } else { 64 };
        self.voters = (self.voters.0.min(3), self.voters.1.min(6));
        self.seed_voters = self.voters.1.min(self.seed_voters).max(self.voters.0);
        self.buckets = self.buckets.min(4);
        self.warmup = self.warmup.min(5);
        if let Some(mm) = &mut self.minmax {
            mm.n = 6;
            mm.voters = 3;
            mm.per_mille = 50;
        }
        self
    }

    /// Name of main session `i`.
    pub fn session_name(i: usize) -> String {
        format!("s{i}")
    }

    /// Name of client `c`'s `MinMaxAgg` side session.
    pub fn side_name(c: usize) -> String {
        format!("mm{c}")
    }

    /// The main sessions client `c` owns.
    pub fn sessions_of(&self, c: usize) -> Vec<String> {
        (0..self.sessions)
            .filter(|i| i % self.clients == c)
            .map(Spec::session_name)
            .collect()
    }
}

/// One client's op generator.
pub struct Gen {
    spec: Spec,
    rng: Pcg32,
    zipf: ZipfSampler,
    sessions: Vec<String>,
    side: String,
}

impl Gen {
    /// Client `client`'s generator for run seed `seed`.
    pub fn new(spec: Spec, client: usize, seed: u64) -> Gen {
        let sessions = spec.sessions_of(client);
        Gen {
            spec,
            rng: Pcg32::seed_from_u64(
                seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            zipf: ZipfSampler::new(sessions.len(), spec.zipf),
            sessions,
            side: Spec::side_name(client),
        }
    }

    /// The client's main sessions, most popular first.
    pub fn sessions(&self) -> &[String] {
        &self.sessions
    }

    /// The client's side session, if the workload has one.
    pub fn side(&self) -> Option<&str> {
        self.spec.minmax.map(|_| self.side.as_str())
    }

    /// A random ranking with ties over `n` elements.
    pub fn ranking(&mut self, n: usize) -> BucketOrder {
        random_few_valued(&mut self.rng, n, self.spec.buckets.min(n))
    }

    /// The next op of the workload's mix, given the acknowledged state.
    pub fn next(&mut self, mirror: &Mirror) -> Request {
        if let Some(mm) = self.spec.minmax {
            if self.rng.gen_range(0..1000u32) < mm.per_mille {
                return Request::MinMaxAgg {
                    session: self.side.clone(),
                    labels: Vec::new(),
                    rules: Vec::new(),
                };
            }
        }
        let session = self.sessions[self.zipf.sample(&mut self.rng)].clone();
        let sm = mirror.get(&session).expect("generated sessions exist");
        let ids: Vec<u64> = sm.voters.keys().copied().collect();
        let n = sm.n;
        let pick = |rng: &mut Pcg32| ids[rng.gen_range(0..ids.len())];
        if self.rng.gen_f64() * 100.0 < self.spec.edit_pct {
            let (lo, hi) = self.spec.voters;
            let kind = if self.spec.replace_only {
                OpKind::Replace
            } else if ids.len() <= lo {
                OpKind::Push
            } else if ids.len() >= hi {
                OpKind::Remove
            } else {
                [
                    OpKind::Push,
                    OpKind::Remove,
                    OpKind::Replace,
                    OpKind::Replace,
                ][self.rng.gen_range(0..4usize)]
            };
            return match kind {
                OpKind::Push => Request::PushVoter {
                    session,
                    ranking: self.ranking(n),
                },
                OpKind::Remove => Request::RemoveVoter {
                    session,
                    voter: pick(&mut self.rng),
                },
                _ => Request::ReplaceVoter {
                    session,
                    voter: pick(&mut self.rng),
                    ranking: self.ranking(n),
                },
            };
        }
        let reads = self.spec.reads;
        let kind = reads[self.rng.gen_range(0..reads.len())];
        let pair = |rng: &mut Pcg32| {
            let a = rng.gen_range(0..ids.len());
            let b = (a + rng.gen_range(1..ids.len())) % ids.len();
            (ids[a], ids[b])
        };
        match kind {
            OpKind::Median => Request::MedianOrder { session },
            OpKind::TopK => Request::TopK {
                session,
                k: self.rng.gen_range(1..=K_MAX.min(n)) as u32,
            },
            OpKind::Kemeny => Request::KemenyCost {
                session,
                candidate: self.ranking(n),
            },
            OpKind::Pair(metric) => {
                let (voter_a, voter_b) = pair(&mut self.rng);
                Request::PairMetric {
                    session,
                    metric,
                    voter_a,
                    voter_b,
                }
            }
            OpKind::Weighted | OpKind::TopDiff => {
                let (voter_a, voter_b) = pair(&mut self.rng);
                let weights = (0..n).map(|_| self.rng.gen_range(1..=8u64)).collect();
                if kind == OpKind::Weighted {
                    Request::WeightedDist {
                        session,
                        voter_a,
                        voter_b,
                        weights,
                    }
                } else {
                    Request::TopDiff {
                        session,
                        voter_a,
                        voter_b,
                        weights,
                    }
                }
            }
            other => unreachable!("{other:?} is not a read class"),
        }
    }
}
