//! The `replay` workload: an indexer replaying a chain's deployments
//! against one `PersistentStore`.
//!
//! A round runs its epochs over the same stream, each a fresh `SigRec`
//! on a freshly opened store in the same directory: cold (empty store),
//! `WARM_RESTARTS` graceful restarts (flushed index, served from the
//! store), and a crash restart (index deleted, final segment torn mid-record, so the open
//! rescans). Within an epoch the stream goes through `recover_batch` in
//! chunks of `CHUNK`, and after every chunk each factory/proxy burst goes
//! through `recover_linked`. Every epoch's results must be identical.
//! The first round warms the process up and is checked but not timed.

use crate::check::{check_burst, check_case, digest, digest_parts, Accuracy};
use crate::closed::guarded;
use crate::closed::WARMUP_ROUNDS;
use crate::inputs::Replay;
use crate::trace::{timed, write_spans, Layer, Recorder};
use crate::util::{best, median, peak_rss_mb, secs, Best, Latency, Report};
use crate::WORK_DIR;
use sigrec_core::{
    recover_batch, BatchResult, CacheStats, PersistentStore, RecoveryCache, RecoveryOutcome,
    SigRec, StoreDiagnostic, StoreStats,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Stream contracts per `recover_batch` call: the chunk of the
/// repository's chain-replay harness (`crates/bench/src/replay.rs`), so
/// the bursts stay the same small share of the stream as there.
pub const CHUNK: usize = 2_048;

/// Graceful restarts per round; `warm_contracts_per_s` takes each call's
/// best time over every warm epoch of the run.
pub const WARM_RESTARTS: usize = 3;

/// What one epoch observed.
struct Epoch {
    wall: f64,
    /// Every call in order, as (seconds from submission to result,
    /// contracts it recovered): each `recover_batch` chunk, then its
    /// bursts' `recover_linked` calls. A contract's latency is its call's.
    calls: Vec<(f64, usize)>,
    /// Contracts submitted to `recover_batch`, and how many were distinct.
    dedup: (usize, usize),
    /// Results, kept until the round is checked.
    batches: Vec<BatchResult>,
    bursts: Vec<Result<RecoveryOutcome, String>>,
    open_s: f64,
    construct_s: f64,
    flush_s: f64,
    store: StoreStats,
    cache: CacheStats,
    diags: Vec<StoreDiagnostic>,
}

impl Epoch {
    /// Per-stream-position digests, then per-burst digests.
    fn digests(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for b in &self.batches {
            let mut slot = vec![0u64; b.items.len()];
            for item in &b.items {
                slot[item.index] = digest_parts(&item.functions, &item.diagnostics);
            }
            out.extend(slot);
        }
        out.extend(self.bursts.iter().map(|b| b.as_ref().map_or(0, digest)));
        out
    }
}

/// One simulated process lifetime against the store at `dir`.
fn epoch(
    dir: &Path,
    inputs: &Replay,
    stream: &[Vec<u8>],
    clients: usize,
    rec: &mut Option<Recorder>,
) -> std::io::Result<Epoch> {
    let root = rec.as_mut().map(|r| r.enter(Layer::Epoch));
    let t = Instant::now();
    let store = timed(rec.as_mut(), Layer::StoreOpen, || {
        PersistentStore::open(dir)
    })?;
    let open_s = secs(t);
    let diags = store.open_diagnostics().to_vec();
    let t = Instant::now();
    let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(store));
    let construct_s = secs(t);
    let (mut batches, mut bursts, mut calls) = (vec![], vec![], vec![]);
    let start = Instant::now();
    for chunk in stream.chunks(CHUNK) {
        let t = Instant::now();
        batches.push(timed(rec.as_mut(), Layer::Batch, || {
            recover_batch(&sigrec, chunk, clients)
        }));
        calls.push((secs(t), chunk.len()));
        for burst in &inputs.bursts {
            let b = &burst.bundle;
            let t = Instant::now();
            bursts.push(timed(rec.as_mut(), Layer::Linked, || {
                guarded(|| sigrec.recover_linked_with_outcome(&b.deployed, &b.links))
            }));
            calls.push((secs(t), 1));
        }
    }
    let wall = secs(start);
    let dedup = batches.iter().fold((0, 0), |(t, d), b| {
        (t + b.dedup.total_contracts, d + b.dedup.distinct_contracts)
    });
    let t = Instant::now();
    timed(rec.as_mut(), Layer::Flush, || sigrec.flush_store())?;
    let flush_s = secs(t);
    if let (Some(r), Some(id)) = (rec.as_mut(), root) {
        r.exit(id);
    }
    Ok(Epoch {
        wall,
        calls,
        dedup,
        batches,
        bursts,
        open_s,
        construct_s,
        flush_s,
        store: sigrec.store_stats().expect("persistent cache has a store"),
        cache: sigrec.cache_stats(),
        diags,
    })
}

/// Deletes the flat index and tears the final segment mid-record: a
/// crash after the last index flush, during an append.
fn simulate_crash(dir: &Path) -> std::io::Result<()> {
    std::fs::remove_file(dir.join("index.flat"))?;
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sigseg"))
        .collect();
    segments.sort();
    let last = segments.last().ok_or(std::io::ErrorKind::NotFound)?;
    let len = std::fs::metadata(last)?.len();
    // 13 bytes always land inside the final record's framing or payload.
    std::fs::OpenOptions::new()
        .write(true)
        .open(last)?
        .set_len(len - 13.min(len.saturating_sub(8)))
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir)? {
        total += e?.metadata()?.len();
    }
    Ok(total)
}

/// Figures of one round (three epochs).
struct Round {
    setup_s: f64,
    cold: Epoch,
    warm: Vec<Epoch>,
    crash: Epoch,
    bytes_per_contract: f64,
    traced: bool,
}

fn round(
    dir: &Path,
    inputs: &Replay,
    stream: &[Vec<u8>],
    clients: usize,
    rec: &mut Option<Recorder>,
) -> std::io::Result<Round> {
    let _ = std::fs::remove_dir_all(dir);
    let cold = epoch(dir, inputs, stream, clients, rec)?;
    let stored = PersistentStore::open(dir)?.contract_count();
    let bytes_per_contract = dir_bytes(dir)? as f64 / stored.max(1) as f64;
    let warm = (0..WARM_RESTARTS)
        .map(|_| epoch(dir, inputs, stream, clients, rec))
        .collect::<std::io::Result<Vec<_>>>()?;
    simulate_crash(dir)?;
    let crash = epoch(dir, inputs, stream, clients, rec)?;
    std::fs::remove_dir_all(dir)?;
    let setup_s = std::iter::once(&cold)
        .chain(&warm)
        .chain([&crash])
        .map(|e| e.open_s + e.construct_s)
        .sum();
    Ok(Round {
        setup_s,
        cold,
        warm,
        crash,
        bytes_per_contract,
        traced: rec.is_some(),
    })
}

/// Checks a round's outputs and returns the accuracy over its distinct
/// templates.
fn check_round(r: &Round, inputs: &Replay, report: &mut Report) -> Accuracy {
    let mut acc = Accuracy::default();
    let mut scored = vec![false; inputs.templates.len()];
    let mut pos = 0;
    for b in &r.cold.batches {
        for item in &b.items {
            let t = inputs.stream[pos + item.index];
            let out = RecoveryOutcome {
                functions: item.functions.as_ref().clone(),
                diagnostics: item.diagnostics.as_ref().clone(),
            };
            let mut one = Accuracy::default();
            report.check(check_case(&inputs.templates[t], &out, &mut one));
            if !scored[t] {
                scored[t] = true;
                acc.add(&one);
            }
        }
        pos += b.items.len();
    }
    for (i, out) in r.cold.bursts.iter().enumerate() {
        let burst = &inputs.bursts[i % inputs.bursts.len()];
        report.check(match out {
            Ok(o) => check_burst(burst, o),
            Err(panic) => Some(format!("burst panicked: {panic}")),
        });
    }
    let cold = r.cold.digests();
    let epochs = r
        .warm
        .iter()
        .map(|e| ("warm", e))
        .chain([("crash", &r.crash)]);
    for (name, e) in epochs {
        for (a, b) in cold.iter().zip(e.digests()) {
            report.check((*a != b).then(|| format!("{name} epoch result differs from cold")));
        }
    }
    let has = |e: &Epoch, f: fn(&StoreDiagnostic) -> bool| e.diags.iter().any(f);
    let torn = |d: &StoreDiagnostic| matches!(d, StoreDiagnostic::TornTail { .. });
    let stale = |d: &StoreDiagnostic| matches!(d, StoreDiagnostic::StaleIndex);
    let mut problems = vec![
        (
            !has(&r.crash, stale),
            "crash restart did not report the stale index",
        ),
        (
            !has(&r.crash, torn),
            "crash restart did not detect the torn tail",
        ),
    ];
    for w in &r.warm {
        problems.extend([
            (
                has(w, torn) || has(w, stale),
                "graceful restart did not open through its index",
            ),
            (
                w.store.records_appended != 0,
                "graceful restart recomputed and appended",
            ),
            (
                w.store.disk_misses != 0,
                "graceful restart missed the store",
            ),
        ]);
    }
    for (bad, what) in problems {
        if bad {
            report.fail(what.to_string());
        }
    }
    acc
}

/// Runs rounds until `seconds` are spent. With `trace`, rounds alternate
/// between untraced and traced, and the per-layer metrics come from the
/// traced ones; otherwise the end-to-end metrics are printed.
pub fn run(inputs: &Replay, clients: usize, seconds: f64, trace: bool, report: &mut Report) {
    let stream: Vec<Vec<u8>> = inputs
        .stream
        .iter()
        .map(|&t| inputs.templates[t].code.clone())
        .collect();
    let dir = Path::new(WORK_DIR).join(format!("replay-store-{}", std::process::id()));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_spans = None;
    let mut acc = Accuracy::default();
    // `VmHWM` after the first round, which holds one cold, three warm and
    // one crash lifetime. Later rounds add only the allocator's creep from
    // tearing caches down and rebuilding them in one process (48 → 96 MB
    // over 80 rounds, 93–115 MB between runs of one seed): the harness's
    // repetition, not the workload.
    let mut peak_rss = None;
    let mut checked = 0;
    while rounds.len() < 1 + usize::from(trace) || Instant::now() < deadline {
        let mut rec = (trace && rounds.len() % 2 == 1).then(|| Recorder::new(Instant::now()));
        match round(&dir, inputs, &stream, clients, &mut rec) {
            Ok(mut r) => {
                let round_acc = check_round(&r, inputs, report);
                checked += 1;
                if checked == 1 {
                    acc = round_acc;
                    peak_rss = peak_rss_mb();
                }
                if checked <= WARMUP_ROUNDS {
                    continue;
                }
                // Only the figures outlive the check, so the results of
                // earlier rounds never add to the peak resident set.
                for e in std::iter::once(&mut r.cold)
                    .chain(&mut r.warm)
                    .chain([&mut r.crash])
                {
                    e.batches = Vec::new();
                    e.bursts = Vec::new();
                }
                rounds.push(r);
                if rec.is_some() {
                    last_spans = rec;
                }
            }
            Err(e) => {
                report.fail(format!("replay store I/O: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
        }
    }
    if rounds.is_empty() {
        return;
    }
    let per_epoch = (stream.len() + inputs.bursts.len() * stream.chunks(CHUNK).len()) as f64;
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.info(
        "rounds",
        format!("{} timed after {WARMUP_ROUNDS} warm-up", rounds.len()),
    );
    report.info("contracts_per_epoch", per_epoch);
    report.info("chunk_size", CHUNK);
    report.info("batch_workers", clients);
    let warm_walls: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.warm.iter().map(|e| e.wall))
        .collect();
    report.info("warm_restarts_per_round", WARM_RESTARTS);
    report.info("crash_epoch_ms", med(&|r| r.crash.wall * 1e3));
    report.info("store_bytes_per_contract", med(&|r| r.bytes_per_contract));
    if !trace {
        // Every epoch makes the same calls in the same order.
        let calls = rounds[0].cold.calls.len();
        let (mut cold_best, mut warm_best) = (Best::new(calls), Best::new(calls));
        for r in &rounds {
            for (j, (t, _)) in r.cold.calls.iter().enumerate() {
                cold_best.add(j, *t);
            }
            for w in &r.warm {
                for (j, (t, _)) in w.calls.iter().enumerate() {
                    warm_best.add(j, *t);
                }
            }
        }
        let per_contract: Vec<f64> = rounds[0]
            .cold
            .calls
            .iter()
            .zip(cold_best.times())
            .flat_map(|(&(_, k), &t)| std::iter::repeat_n(t * 1e6, k))
            .collect();
        let lat = Latency::of(&per_contract);
        report.info(
            "latency_unit",
            "submission to result of each cold-epoch contract: a stream contract's recover_batch call, a burst's recover_linked call",
        );
        report.info("latency_tail", lat.describe());
        report.info("functions_scored", acc.scored);
        report.info(
            "time_estimate",
            "each call's best time over the timed rounds (cold) or warm epochs; \
             throughput = contracts per epoch / sum of best calls; set-up the best round",
        );
        report.info("warm_epoch_ms_median", median(&warm_walls) * 1e3);
        report.info(
            "epoch_contracts_per_s_median",
            med(&|r| per_epoch / r.cold.wall),
        );
        report.info(
            "epoch_warm_contracts_per_s_median",
            per_epoch / median(&warm_walls),
        );
        report.metric(
            "setup_s",
            best(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        );
        report.metric("contracts_per_s", per_epoch / cold_best.sum(), "1/s");
        report.metric("warm_contracts_per_s", per_epoch / warm_best.sum(), "1/s");
        report.metric("latency_p50_us", lat.p50, "us");
        report.metric("latency_tail_us", lat.tail, "us");
        report.metric("accuracy", acc.share(), "ratio");
        report.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB");
        return;
    }

    let rec = last_spans.expect("a traced round ran");
    match write_spans("spans-replay.tsv", &[&rec]) {
        Ok(path) => report.info("spans_file", path),
        Err(e) => report.fail(format!("writing spans: {e}")),
    }
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let tmed = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let pmed = |f: &dyn Fn(&Round) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    // Span totals of the last traced round, split per epoch by order:
    // epochs are the recorder's root spans.
    let (own, total) = rec.times();
    let epochs: Vec<_> = rec
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Epoch)
        .collect();
    let cold_epoch = epochs[0];
    let in_cold = |layer: Layer| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.layer == layer && s.start >= cold_epoch.start && s.end <= cold_epoch.end)
            .map(|s| (s.end - s.start) as f64 / 1e6)
            .sum()
    };
    let epoch_ms = total[Layer::Epoch as usize] as f64 / 1e6;
    let glue_ms = own[Layer::Epoch as usize] as f64 / 1e6;
    report.info(
        "accounting",
        format!(
            "spans {:.3} ms + glue {glue_ms:.3} ms = wall {epoch_ms:.3} ms \
             (1 driving thread, {} epochs)",
            epoch_ms - glue_ms,
            epochs.len()
        ),
    );
    let dedup = |r: &Round| 1.0 - r.cold.dedup.1 as f64 / r.cold.dedup.0.max(1) as f64;
    crate::trace::closed_metrics_absent(report);
    report.metric("core.pipeline.linked_ms", in_cold(Layer::Linked), "ms");
    report.metric(
        "core.cache.contract_hit_rate",
        tmed(&|r| r.cold.cache.contract_hit_rate()),
        "ratio",
    );
    report.metric(
        "core.cache.function_hit_rate",
        tmed(&|r| r.cold.cache.function_hit_rate()),
        "ratio",
    );
    report.metric(
        "core.cache.program_hit_rate",
        tmed(&|r| r.cold.cache.program_hit_rate()),
        "ratio",
    );
    report.metric(
        "core.store.open_ms.empty",
        tmed(&|r| r.cold.open_s * 1e3),
        "ms",
    );
    report.metric(
        "core.store.open_ms.warm",
        tmed(&|r| r.warm[0].open_s * 1e3),
        "ms",
    );
    report.metric(
        "core.store.open_ms.crash",
        tmed(&|r| r.crash.open_s * 1e3),
        "ms",
    );
    report.metric("core.store.flush_ms", tmed(&|r| r.cold.flush_s * 1e3), "ms");
    report.metric(
        "core.store.bytes_appended",
        tmed(&|r| r.cold.store.bytes_appended as f64),
        "bytes",
    );
    report.metric(
        "core.store.bytes_read",
        tmed(&|r| r.warm[0].store.bytes_read as f64),
        "bytes",
    );
    report.metric(
        "core.store.fsyncs",
        tmed(&|r| r.cold.store.fsyncs as f64),
        "count",
    );
    report.metric(
        "core.store.disk_hit_rate",
        tmed(&|r| r.warm[0].store.disk_hit_rate()),
        "ratio",
    );
    report.metric(
        "core.store.bytes_per_contract",
        tmed(&|r| r.bytes_per_contract),
        "bytes",
    );
    report.metric("core.batch.ms", in_cold(Layer::Batch), "ms");
    report.metric("core.batch.dedup_rate", tmed(&dedup), "ratio");
    report.metric("trace.layer_self_ms", epoch_ms - glue_ms, "ms");
    report.metric("trace.clients_x_wall_ms", epoch_ms, "ms");
    report.metric("trace.idle_ms", glue_ms, "ms");
    report.metric(
        "trace.overhead_ms",
        (tmed(&|r| r.cold.wall) - pmed(&|r| r.cold.wall)) * 1e3,
        "ms",
    );
    report.metric("trace.mismatches", 0.0, "count");
}

/// The store and batch metrics, zero on workloads without a store.
pub fn store_metrics_absent(report: &mut Report) {
    for (name, unit) in [
        ("core.store.open_ms.empty", "ms"),
        ("core.store.open_ms.warm", "ms"),
        ("core.store.open_ms.crash", "ms"),
        ("core.store.flush_ms", "ms"),
        ("core.store.bytes_appended", "bytes"),
        ("core.store.bytes_read", "bytes"),
        ("core.store.fsyncs", "count"),
        ("core.store.disk_hit_rate", "ratio"),
        ("core.store.bytes_per_contract", "bytes"),
        ("core.batch.ms", "ms"),
        ("core.batch.dedup_rate", "ratio"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
