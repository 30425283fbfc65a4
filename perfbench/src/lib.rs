//! The repository benchmark: closed-loop service workloads against an
//! in-process `bucketrank-server`, checked against a client-side mirror,
//! and a traced replay that splits each op's time across the layers.
//!
//! `--trace 0` runs a workload and reports the end-to-end metrics;
//! `--trace 1` runs it again with the frames recorded, replays them
//! through each layer and reports the per-layer ledger. See README.md
//! next to this crate for the workloads, the metrics and which
//! end-to-end number each layer metric should move.

#![forbid(unsafe_code)]

pub mod conn;
pub mod drive;
pub mod mirror;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

use drive::{clear_dir, peak_rss_mib, Cause, Clock, Served, WindowResult};
use report::{metric, Metric, Outcome, END_TO_END, PER_LAYER};
use stats::{chunked_percentile, median, percentile, sort};
use workload::{OpKind, Spec, KINDS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub spec: Spec,
    /// Input seed.
    pub seed: u64,
    /// Timed window length, s (split in two halves when traced).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch space for data directories; removed afterwards.
    pub work_dir: PathBuf,
    /// Where the span file goes, when traced.
    pub out_dir: PathBuf,
    /// Set-ups per untraced run.
    pub setups: usize,
}

/// Runs one workload and returns what it measured. Output-check
/// failures are in [`Outcome::mismatches`] (and `correct` is false);
/// an `Err` means the run could not measure at all.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let clock = Clock::start();
    let out = if cfg.trace {
        run_traced(cfg, clock)
    } else {
        run_plain(cfg, clock)
    };
    clear_dir(&cfg.work_dir)?;
    let out = out?;
    out.check_against(if cfg.trace { PER_LAYER } else { END_TO_END })?;
    Ok(out)
}

/// Consecutive chunks a window's samples are split into; each
/// end-to-end number is the median over the chunks.
pub const CHUNKS: usize = 5;

/// Median and p99 of a time-ordered latency sample, each the median
/// over up to [`CHUNKS`] consecutive chunks; fails when the sample
/// cannot give a p99 ten samples clear of its end.
fn p50_p99(
    p50: &'static str,
    p99: &'static str,
    timed: &[(u64, f64)],
    notes: &mut Vec<String>,
) -> Result<[Metric; 2], String> {
    let us: Vec<f64> = timed.iter().map(|&(_, v)| v).collect();
    let n = us.len();
    let (mid, k50) =
        chunked_percentile(&us, 50, CHUNKS).ok_or_else(|| format!("{p50}: no samples"))?;
    let (tail, k99) = chunked_percentile(&us, 99, CHUNKS)
        .ok_or_else(|| format!("{p99}: {n} samples leave fewer than 10 beyond the p99"))?;
    notes.push(format!(
        "{p50} and {p99}: medians over {k50} and {k99} chunks of {n} samples"
    ));
    Ok([metric(p50, mid, Some(n)), metric(p99, tail, Some(n))])
}

/// Completions per second: the median over [`CHUNKS`] equal time
/// slices of `[start, end)` of the completions in each slice.
fn slice_rate(done: &[u64], start: u64, end: u64) -> f64 {
    let k = CHUNKS as u64;
    let mut rates: Vec<f64> = (0..k)
        .map(|i| {
            let (a, b) = (
                start + (end - start) * i / k,
                start + (end - start) * (i + 1) / k,
            );
            let count = done.iter().filter(|&&t| t >= a && t < b).count();
            count as f64 / ((b - a) as f64 / 1e9)
        })
        .collect();
    median(&mut rates).expect("at least one slice")
}

/// The median of a per-layer sample; a layer the workload never calls
/// reads 0 with 0 samples.
fn layer_p50(name: &'static str, mut us: Vec<f64>) -> Metric {
    let n = us.len();
    metric(name, median(&mut us).unwrap_or(0.0), Some(n))
}

fn counts(clients: &[drive::ClientState]) -> ([u64; KINDS], [u64; KINDS]) {
    let mut attempted = [0; KINDS];
    let mut failed = [0; KINDS];
    for c in clients {
        for k in 0..KINDS {
            attempted[k] += c.attempted[k];
            failed[k] += c.failed[k];
        }
    }
    (attempted, failed)
}

/// Per-class attempts and failures, plus the error rate, as notes.
fn failure_notes(clients: &[drive::ClientState]) -> Vec<String> {
    let (attempted, failed) = counts(clients);
    let by = |cause: usize| clients.iter().map(|c| c.failed_by[cause]).sum::<u64>();
    let mut notes: Vec<String> = (0..KINDS)
        .filter(|&k| attempted[k] > 0)
        .map(|k| {
            format!(
                "ops.{} attempted={} failed={}",
                OpKind::LABELS[k],
                attempted[k],
                failed[k]
            )
        })
        .collect();
    let (a, f): (u64, u64) = (attempted.iter().sum(), failed.iter().sum());
    notes.push(format!(
        "failures: typed error {}, busy {}, no reply {}",
        by(Cause::Typed as usize),
        by(Cause::Busy as usize),
        by(Cause::Lost as usize)
    ));
    notes.push(format!(
        "error_rate = {} (failed {f} of {a} attempted)",
        f as f64 / a.max(1) as f64
    ));
    notes
}

fn window_notes(spec: &Spec, w: &WindowResult) -> Vec<String> {
    let d = w.deltas;
    let mut notes = vec![
        format!("window_s = {} s", w.seconds),
        format!(
            "server rejected_busy={} protocol_errors={}",
            d.busy, d.protocol_errors
        ),
    ];
    if spec.durable {
        notes.push(format!(
            "shard wal_records={} checkpoints={} evictions={} fault_ins={} resident={} evicted={} wal_file_bytes={}",
            d.shards.wal_records,
            d.shards.checkpoints,
            d.shards.evictions,
            d.shards.recoveries,
            d.shards.sessions,
            d.shards.evicted,
            d.shards.wal_bytes
        ));
    }
    notes
}

fn run_plain(cfg: &RunConfig, clock: Clock) -> Result<Outcome, String> {
    let spec = cfg.spec;
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(previous) = served.take() {
            previous.shutdown();
        }
        let (s, secs) = Served::setup(spec, cfg.seed, &cfg.work_dir, false, clock)?;
        setup_s.push(secs);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    let st0 = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let w = served.window(cfg.seconds, false)?;
    let st1 = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let rss = peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?;
    served.check("final check");
    let mut notes = window_notes(&spec, &w);
    if let Some(steal) = steal_share(&st0, &st1) {
        notes.push(format!(
            "cpu_steal_pct = {} % of CPU time during the window",
            steal * 100.0
        ));
    }
    if spec.durable {
        let secs = served.restart()?;
        notes.push(format!(
            "recovery_s = {secs} s (after restart, every session re-checked)"
        ));
        served.check("check after restart");
    }
    let mismatches = served.mismatches();
    let (attempted, failed) = counts(&served.clients);
    let fail_notes = failure_notes(&served.clients);
    let by_time = |pick: fn(&drive::ClientState) -> &Vec<(u64, f64)>| -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = served
            .clients
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect();
        all.sort_by_key(|&(t, _)| t);
        all
    };
    let reads = by_time(|c| &c.read_us);
    let edits = by_time(|c| &c.edit_us);
    let mut frames: Vec<f64> = served
        .clients
        .iter()
        .flat_map(|c| c.frame_us.iter().map(|x| x.1))
        .collect();
    served.shutdown();

    let n_setup = setup_s.len();
    let with_mismatches = |e: String| match mismatches.first() {
        Some(m) => format!(
            "{e}; and {} output mismatches, the first: {m}",
            mismatches.len()
        ),
        None => e,
    };
    let [read_p50, read_p99] =
        p50_p99("read_p50_us", "read_p99_us", &reads, &mut notes).map_err(with_mismatches)?;
    let [edit_p50, edit_p99] =
        p50_p99("edit_p50_us", "edit_p99_us", &edits, &mut notes).map_err(with_mismatches)?;
    let mut done: Vec<u64> = reads.iter().chain(&edits).map(|&(t, _)| t).collect();
    done.sort_unstable();
    let metrics = vec![
        metric(
            "setup_s",
            median(&mut setup_s).expect("set-ups ran"),
            Some(n_setup),
        ),
        metric(
            "ops_per_s",
            slice_rate(&done, w.start, w.end),
            Some(done.len()),
        ),
        read_p50,
        read_p99,
        edit_p50,
        edit_p99,
        metric("peak_rss_mib", rss, None),
    ];
    if !frames.is_empty() {
        sort(&mut frames);
        let tail = percentile(&frames, 99).map_or("refused".to_owned(), |v| format!("{v} us"));
        notes.push(format!(
            "batch_p50_us = {} us, batch_p99_us = {tail} (n={} Batch frames)",
            percentile(&frames, 50).unwrap_or(0.0),
            frames.len()
        ));
    }
    notes.extend(fail_notes);
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: attempted.iter().sum(),
        failed: failed.iter().sum(),
        metrics,
        notes,
        mismatches,
    })
}

fn run_traced(cfg: &RunConfig, clock: Clock) -> Result<Outcome, String> {
    let spec = cfg.spec;
    let (mut served, _) = Served::setup(spec, cfg.seed, &cfg.work_dir, true, clock)?;
    let half = cfg.seconds / 2.0;
    let traced = served.window(half, true)?;
    let plain = served.window(half, false)?;
    served.check("final check");
    let recovery = if spec.durable {
        let secs = served.restart()?;
        served.check("check after restart");
        Some(secs)
    } else {
        None
    };
    let mut mismatches = served.mismatches();
    let (attempted, failed) = counts(&served.clients);
    let fail_notes = failure_notes(&served.clients);
    let logs: Vec<Vec<drive::Frame>> = served
        .clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.log))
        .collect();
    served.shutdown();

    let ledger = replay::replay(&spec, &logs, &cfg.work_dir, clock)?;
    drop(logs);
    mismatches.extend(ledger.mismatches.iter().cloned());
    let tr = &ledger.trace;
    let spans_path = cfg
        .out_dir
        .join(format!("spans-{}-{}.tsv", spec.name, cfg.seed));
    tr.write_tsv(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let d = traced.deltas;
    let touches = traced.attempted;
    let traced_rate = traced.completed as f64 / traced.seconds;
    let plain_rate = plain.completed as f64 / plain.seconds;
    let wal_p99 = {
        let mut us = tr.durations_us("wal.append");
        sort(&mut us);
        let n = us.len();
        match (n, percentile(&us, 99)) {
            (0, _) => metric("wal.append_p99_us", 0.0, Some(0)),
            (_, Some(v)) => metric("wal.append_p99_us", v, Some(n)),
            (_, None) => {
                return Err(format!(
                    "wal.append_p99_us: {n} samples leave fewer than 10 beyond the p99"
                ))
            }
        }
    };
    let prepared = [
        "prepared.prepare",
        "prepared.kprof",
        "prepared.fprof",
        "prepared.khaus",
        "prepared.fhaus",
    ];
    let used = |names: &[&str]| {
        tr.spans()
            .iter()
            .filter(|s| names.contains(&s.name))
            .count()
    };
    let busy =
        |name: &'static str, spans: &[&str]| metric(name, tr.busy_s(spans), Some(used(spans)));
    let metrics = vec![
        layer_p50(
            "server.roundtrip_p50_us",
            tr.durations_us("server.roundtrip"),
        ),
        layer_p50(
            "server.transport_self_p50_us",
            tr.self_times_us("server.roundtrip"),
        ),
        metric("server.busy_rejections", d.busy as f64, None),
        metric("server.protocol_errors", d.protocol_errors as f64, None),
        layer_p50("proto.encode_p50_ns", ledger.encode_ns_per_op.clone()),
        layer_p50("proto.decode_p50_ns", ledger.decode_ns_per_op.clone()),
        metric(
            "proto.bytes_per_op",
            ledger.wire_bytes as f64 / ledger.ops.max(1) as f64,
            Some(ledger.ops as usize),
        ),
        layer_p50("service.handle_p50_us", tr.durations_us("service.handle")),
        busy("service.handle_busy_s", &["service.handle"]),
        layer_p50("service.self_p50_us", tr.self_times_us("service.handle")),
        metric("service.errors", ledger.service_errors as f64, None),
        metric("shard.fault_ins", d.shards.recoveries as f64, None),
        metric("shard.evictions", d.shards.evictions as f64, None),
        metric("shard.checkpoints", d.shards.checkpoints as f64, None),
        metric(
            "shard.resident_hit_ratio",
            1.0 - d.shards.recoveries as f64 / touches.max(1) as f64,
            Some(touches as usize),
        ),
        metric(
            "shard.recovery_s",
            recovery.unwrap_or(0.0),
            Some(usize::from(recovery.is_some())),
        ),
        layer_p50("wal.append_p50_us", tr.durations_us("wal.append")),
        wal_p99,
        metric("wal.records", d.shards.wal_records as f64, None),
        metric(
            "wal.bytes_per_user_byte",
            if ledger.wal_user_bytes == 0 {
                0.0
            } else {
                ledger.wal_bytes as f64 / ledger.wal_user_bytes as f64
            },
            Some(used(&["wal.append"])),
        ),
        layer_p50("dynamic.edit_p50_us", tr.durations_us("dynamic.edit")),
        busy("dynamic.edit_busy_s", &["dynamic.edit"]),
        layer_p50(
            "dynamic.snapshot_p50_us",
            tr.durations_us("dynamic.snapshot"),
        ),
        busy("dynamic.snapshot_busy_s", &["dynamic.snapshot"]),
        layer_p50("dynamic.read_p50_us", tr.durations_us("dynamic.read")),
        layer_p50("tally.kemeny_p50_us", tr.durations_us("tally.kemeny")),
        busy("tally.kemeny_busy_s", &["tally.kemeny"]),
        layer_p50(
            "prepared.prepare_p50_us",
            tr.durations_us("prepared.prepare"),
        ),
        layer_p50("prepared.kprof_p50_us", tr.durations_us("prepared.kprof")),
        layer_p50("prepared.fprof_p50_us", tr.durations_us("prepared.fprof")),
        layer_p50("prepared.khaus_p50_us", tr.durations_us("prepared.khaus")),
        layer_p50("prepared.fhaus_p50_us", tr.durations_us("prepared.fhaus")),
        busy("prepared.busy_s", &prepared),
        layer_p50(
            "weighted.footrule_p50_us",
            tr.durations_us("weighted.footrule"),
        ),
        layer_p50(
            "weighted.top_diff_p50_us",
            tr.durations_us("weighted.top_diff"),
        ),
        layer_p50(
            "minmax.aggregate_p50_us",
            tr.durations_us("minmax.aggregate"),
        ),
        busy("minmax.aggregate_busy_s", &["minmax.aggregate"]),
        metric(
            "trace.overhead_pct",
            (plain_rate - traced_rate) / plain_rate * 100.0,
            None,
        ),
    ];
    let mut notes = window_notes(&spec, &traced);
    notes.push(format!(
        "traced ops_per_s = {traced_rate} 1/s, untraced ops_per_s = {plain_rate} 1/s"
    ));
    notes.push(format!(
        "spans written to {} ({} spans)",
        spans_path.display(),
        tr.spans().len()
    ));
    notes.extend(fail_notes);
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: attempted.iter().sum(),
        failed: failed.iter().sum(),
        metrics,
        notes,
        mismatches,
    })
}

/// Share of CPU time stolen by the hypervisor between two readings of
/// `/proc/stat`: interference from outside the benchmark, printed so
/// a slow run can be told apart from a slow program.
fn steal_share(before: &str, after: &str) -> Option<f64> {
    let ticks = |t: &str| -> Option<Vec<u64>> {
        t.lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().ok())
            .collect()
    };
    let (a, b) = (ticks(before)?, ticks(after)?);
    let delta: Vec<u64> = b
        .iter()
        .zip(&a)
        .map(|(y, x)| y.saturating_sub(*x))
        .collect();
    let total: u64 = delta.iter().sum();
    (total > 0 && delta.len() > 7).then(|| delta[7] as f64 / total as f64)
}
