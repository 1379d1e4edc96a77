//! Corpus-scale throughput benchmark for the dedup-aware batch layer.
//!
//! Deployed bytecode is massively duplicated (factory clones, proxy
//! templates, copy-pasted tokens), so corpus-scale recovery throughput is
//! dominated by how well the pipeline exploits that redundancy. This
//! experiment builds a synthetic corpus with an on-chain-like duplication
//! profile (~20× mean duplication, skewed so a few templates dominate),
//! runs it through the naive per-contract scheduler and the dedup-aware
//! function-grained sharded work-stealing scheduler at worker counts
//! {1, 2, 4, 8, 16} (best of several profiled runs per point), verifies
//! every run recovers identical signatures, and reports contracts/s,
//! per-point contract-latency tails (p50/p90/p99/max from the
//! scheduler's log-bucketed histogram) and steal/park counters, executor
//! step/path/fork counters, a compile/explore/infer
//! phase breakdown (with the inference phase further split into
//! index/match/refine sub-phases and the per-rule attribution reported
//! *exclusively* — shared index/dispatch time in its own bucket, so the
//! per-rule figures sum to at most the phase total), a single-worker
//! block-vs-instruction engine probe and a single-worker
//! tree-vs-per-rule inference probe (both double as CI gates: each
//! engine pair must recover identical signatures), cache hit rates and
//! latency percentiles at both function and contract granularity. The
//! machine-readable summary is written to `BENCH_throughput.json` in the
//! working directory.

use crate::accuracy::Scale;
use crate::report::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigrec_core::exec::ExecEngine;
use sigrec_core::{
    recover_batch, recover_batch_naive, BatchResult, InferEngine, SigRec, TaseConfig,
};
use sigrec_corpus::datasets;
use std::time::{Duration, Instant};

/// Worker counts swept by the scaling table.
const WORKER_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// The worker count whose run is reported as "the" dedup figure.
const REFERENCE_WORKERS: usize = 4;

/// Profiled runs per sweep point; each point reports its best run. A
/// full dedup pass is tens of milliseconds — well within scheduler
/// jitter on a shared box — so a single sample per worker count would
/// make the scaling curve mostly noise.
const SWEEP_REPS: usize = 3;

/// One worker count's best run in the scaling sweep: wall seconds plus
/// the scheduler telemetry that run produced — the per-contract latency
/// tail (from the batch's log-bucketed histogram) and the steal/park
/// counters aggregated from the per-worker scheduler counters.
struct SweepPoint {
    workers: usize,
    secs: f64,
    p50: Duration,
    p90: Duration,
    p99: Duration,
    max: Duration,
    steals: u64,
    steal_failures: u64,
    steal_backoffs: u64,
    contention: u64,
}

/// Expands `distinct` codes into a `total`-element corpus with a skewed
/// (harmonic) duplication profile: template `i` receives weight
/// `1 / (i + 1)`, mirroring the head-heavy clone distribution seen on
/// chain. Every template appears at least once and the result is
/// deterministically shuffled with `seed`.
pub fn duplicate_with_skew(distinct: &[Vec<u8>], total: usize, seed: u64) -> Vec<Vec<u8>> {
    assert!(!distinct.is_empty(), "need at least one distinct code");
    let total = total.max(distinct.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // Cumulative harmonic weights for weighted template sampling.
    let mut cumulative = Vec::with_capacity(distinct.len());
    let mut sum = 0.0f64;
    for i in 0..distinct.len() {
        sum += 1.0 / (i + 1) as f64;
        cumulative.push(sum);
    }

    // One guaranteed copy of every template, then weighted fill.
    let mut codes: Vec<Vec<u8>> = distinct.to_vec();
    while codes.len() < total {
        let u = rng.gen::<f64>() * sum;
        let i = cumulative
            .partition_point(|&c| c < u)
            .min(distinct.len() - 1);
        codes.push(distinct[i].clone());
    }

    // Fisher–Yates so duplicates are interleaved, not clustered.
    for i in (1..codes.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        codes.swap(i, j);
    }
    codes
}

/// Asserts that two batch results recover identical signatures for every
/// input contract, in input order.
fn assert_equivalent(naive: &BatchResult, dedup: &BatchResult) {
    assert_eq!(naive.items.len(), dedup.items.len(), "item count differs");
    for (a, b) in naive.items.iter().zip(&dedup.items) {
        assert_eq!(a.index, b.index, "item order differs");
        assert_eq!(
            a.functions.len(),
            b.functions.len(),
            "function count differs at {}",
            a.index
        );
        for (fa, fb) in a.functions.iter().zip(b.functions.iter()) {
            assert_eq!(fa.selector, fb.selector, "selector differs at {}", a.index);
            assert_eq!(fa.params, fb.params, "params differ at {}", a.index);
            assert_eq!(fa.language, fb.language, "language differs at {}", a.index);
        }
    }
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// max/p99 of a sorted latency vector (1.0 when degenerate).
fn tail_ratio(sorted: &[Duration]) -> f64 {
    let p99 = percentile(sorted, 0.99).as_secs_f64();
    let max = sorted
        .last()
        .copied()
        .unwrap_or(Duration::ZERO)
        .as_secs_f64();
    if p99 <= 0.0 {
        1.0
    } else {
        max / p99
    }
}

/// The single-worker engine contrast: wall and TASE-attributed seconds
/// for the same corpus under each execution engine.
struct EngineProbe {
    block_secs: f64,
    instr_secs: f64,
    block_tase: f64,
    instr_tase: f64,
    block_compile: f64,
}

impl EngineProbe {
    /// Single-worker TASE throughput ratio, the headline figure for the
    /// block-compiled engine.
    fn tase_speedup(&self) -> f64 {
        self.instr_tase / self.block_tase.max(1e-9)
    }

    fn wall_speedup(&self) -> f64 {
        self.instr_secs / self.block_secs.max(1e-9)
    }
}

/// Runs the dedup corpus through both execution engines at one worker and
/// asserts they recover identical signatures — the bench doubles as a CI
/// gate on engine agreement (a mismatch panics, failing the run).
fn engine_probe(codes: &[Vec<u8>]) -> EngineProbe {
    // One cold run is a few milliseconds of executor time — well below
    // scheduler jitter — so each engine reports its best of several
    // interleaved cold runs (fresh recoverer per run, so the cache never
    // absorbs the TASE work being measured).
    const REPS: usize = 5;
    let run = |engine: ExecEngine| {
        let cfg = TaseConfig {
            exec_engine: engine,
            ..TaseConfig::default()
        };
        let rec = SigRec::with_config(cfg).with_exec_stats();
        let t = Instant::now();
        let result = recover_batch(&rec, codes, 1);
        let secs = t.elapsed().as_secs_f64();
        let profile = rec.exec_stats().expect("profiling enabled");
        (result, secs, profile)
    };
    let mut probe = EngineProbe {
        block_secs: f64::INFINITY,
        instr_secs: f64::INFINITY,
        block_tase: f64::INFINITY,
        instr_tase: f64::INFINITY,
        block_compile: f64::INFINITY,
    };
    let mut last_pair = None;
    for _ in 0..REPS {
        let (block, block_secs, block_prof) = run(ExecEngine::Block);
        let (instr, instr_secs, instr_prof) = run(ExecEngine::Instr);
        probe.block_secs = probe.block_secs.min(block_secs);
        probe.instr_secs = probe.instr_secs.min(instr_secs);
        probe.block_tase = probe.block_tase.min(block_prof.tase_time.as_secs_f64());
        probe.instr_tase = probe.instr_tase.min(instr_prof.tase_time.as_secs_f64());
        probe.block_compile = probe
            .block_compile
            .min(block_prof.compile_time.as_secs_f64());
        last_pair = Some((instr, block));
    }
    let (instr, block) = last_pair.expect("REPS > 0");
    assert_equivalent(&instr, &block);
    if std::env::var_os("SIGREC_PROBE_DEBUG").is_some() {
        let (_, _, bp) = run(ExecEngine::Block);
        eprintln!(
            "probe: steps={} paths={} forks={} fns={} tase={:?}",
            bp.exec.steps, bp.exec.paths, bp.exec.forks, bp.functions_explored, bp.tase_time
        );
    }
    probe
}

/// The single-worker inference-engine contrast: wall, TASE+infer, and
/// infer-phase seconds for the same corpus under the compiled tree
/// matcher and the per-rule reference.
struct InferProbe {
    tree_secs: f64,
    perrule_secs: f64,
    tree_taseinfer: f64,
    perrule_taseinfer: f64,
    tree_infer: f64,
    perrule_infer: f64,
}

impl InferProbe {
    /// Single-worker TASE+infer throughput ratio — the ISSUE gate for the
    /// compiled tree matcher (per-rule time over tree time).
    fn taseinfer_speedup(&self) -> f64 {
        self.perrule_taseinfer / self.tree_taseinfer.max(1e-9)
    }

    /// Inference-phase-only throughput ratio.
    fn infer_speedup(&self) -> f64 {
        self.perrule_infer / self.tree_infer.max(1e-9)
    }
}

/// Runs the dedup corpus through both inference engines at one worker and
/// asserts they recover identical signatures — like [`engine_probe`], the
/// bench doubles as a CI gate on inference-engine agreement.
fn infer_probe(codes: &[Vec<u8>]) -> InferProbe {
    // Interleaved best-of-REPS cold runs, same rationale as
    // `engine_probe`: the inference phase is milliseconds, well below
    // scheduler jitter, so the minimum of paired runs is the honest
    // figure.
    const REPS: usize = 5;
    let run = |engine: InferEngine| {
        let cfg = TaseConfig {
            infer_engine: engine,
            ..TaseConfig::default()
        };
        let rec = SigRec::with_config(cfg).with_exec_stats();
        let t = Instant::now();
        let result = recover_batch(&rec, codes, 1);
        let secs = t.elapsed().as_secs_f64();
        let profile = rec.exec_stats().expect("profiling enabled");
        (result, secs, profile)
    };
    let mut probe = InferProbe {
        tree_secs: f64::INFINITY,
        perrule_secs: f64::INFINITY,
        tree_taseinfer: f64::INFINITY,
        perrule_taseinfer: f64::INFINITY,
        tree_infer: f64::INFINITY,
        perrule_infer: f64::INFINITY,
    };
    let mut last_pair = None;
    for _ in 0..REPS {
        let (tree, tree_secs, tree_prof) = run(InferEngine::Tree);
        let (per, per_secs, per_prof) = run(InferEngine::PerRule);
        let tree_infer = tree_prof.infer_time.as_secs_f64();
        let per_infer = per_prof.infer_time.as_secs_f64();
        probe.tree_secs = probe.tree_secs.min(tree_secs);
        probe.perrule_secs = probe.perrule_secs.min(per_secs);
        probe.tree_taseinfer = probe
            .tree_taseinfer
            .min(tree_prof.tase_time.as_secs_f64() + tree_infer);
        probe.perrule_taseinfer = probe
            .perrule_taseinfer
            .min(per_prof.tase_time.as_secs_f64() + per_infer);
        probe.tree_infer = probe.tree_infer.min(tree_infer);
        probe.perrule_infer = probe.perrule_infer.min(per_infer);
        last_pair = Some((per, tree));
    }
    let (per, tree) = last_pair.expect("REPS > 0");
    assert_equivalent(&per, &tree);
    probe
}

/// The throughput experiment: naive vs dedup-aware batch recovery over a
/// duplicated corpus, swept over worker counts. Returns the text report
/// and writes `BENCH_throughput.json`.
pub fn throughput(scale: &Scale) -> String {
    // The throughput corpus is ~8× the accuracy corpora (duplication makes
    // the extra volume nearly free for the dedup path): the default scale
    // yields 4 800 contracts over 240 distinct templates (20× duplication).
    let total = scale.contracts.saturating_mul(8).max(40);
    let distinct_n = (total / 20).max(10);
    let base = datasets::dataset3(distinct_n, scale.seed + 40);
    let distinct: Vec<Vec<u8>> = base.contracts.iter().map(|c| c.code.clone()).collect();
    let codes = duplicate_with_skew(&distinct, total, scale.seed + 41);

    // Warm-up: touch every distinct template once so the timed runs don't
    // charge first-run page faults and allocator growth to one worker count.
    let _ = recover_batch(&SigRec::new(), &distinct, REFERENCE_WORKERS);

    // The naive baseline runs at the machine's real parallelism: per-function
    // latencies are wall-clock, and oversubscribing a small box would charge
    // scheduler preemption to individual functions. Snapped down to a sweep
    // point so the dedup latency comparison below has a matching run.
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(REFERENCE_WORKERS);
    let machine_workers = WORKER_SWEEP
        .iter()
        .copied()
        .filter(|&w| w <= available)
        .max()
        .unwrap_or(1);
    let naive_rec = SigRec::new();
    let t0 = Instant::now();
    let naive = recover_batch_naive(&naive_rec, &codes, machine_workers);
    let naive_secs = t0.elapsed().as_secs_f64();

    // Worker-scaling sweep: a fresh profiled SigRec per run, every run
    // checked against the naive baseline signatures, best of SWEEP_REPS
    // kept per point along with that run's latency tail and steal/park
    // counters.
    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut reference: Option<(BatchResult, SigRec, f64)> = None;
    let mut latency_reference: Option<Vec<Duration>> = None;
    for &workers in &WORKER_SWEEP {
        let mut best: Option<(f64, BatchResult, SigRec)> = None;
        for _ in 0..SWEEP_REPS {
            let rec = SigRec::new().with_exec_stats();
            let t = Instant::now();
            let result = recover_batch(&rec, &codes, workers);
            let secs = t.elapsed().as_secs_f64();
            assert_equivalent(&naive, &result);
            if best.as_ref().is_none_or(|(b, _, _)| secs < *b) {
                best = Some((secs, result, rec));
            }
        }
        let (secs, result, rec) = best.expect("SWEEP_REPS > 0");
        let profile = rec.exec_stats().expect("profiling enabled");
        let hist = &result.contract_latency_hist;
        sweep.push(SweepPoint {
            workers,
            secs,
            p50: hist.p50(),
            p90: hist.p90(),
            p99: hist.p99(),
            max: hist.max(),
            steals: profile.exec.steals,
            steal_failures: profile.exec.steal_failures,
            steal_backoffs: profile.exec.steal_backoffs,
            contention: profile.exec.worklist_contention,
        });
        if workers == machine_workers {
            latency_reference = Some(result.contract_latencies.clone());
        }
        if workers == REFERENCE_WORKERS {
            reference = Some((result, rec, secs));
        }
    }
    let (dedup, dedup_rec, dedup_secs) = reference.expect("REFERENCE_WORKERS is in the sweep");

    let functions = dedup.function_count();
    let cache = dedup_rec.cache_stats();
    let profile = dedup_rec.exec_stats().expect("profiling enabled");
    let speedup = naive_secs / dedup_secs.max(1e-9);

    // Engine contrast: the same corpus, single worker, block-compiled vs
    // per-instruction execution (also the engine-agreement CI gate).
    let probe = engine_probe(&codes);

    // Inference contrast: the same corpus, single worker, compiled tree
    // matcher vs per-rule reference (also an engine-agreement CI gate).
    let inf_probe = infer_probe(&codes);

    // True cold per-function recovery latencies, from the naive run (the
    // dedup run only measures each distinct function once).
    let mut lat: Vec<Duration> = naive
        .items
        .iter()
        .flat_map(|i| i.functions.iter().map(|f| f.elapsed))
        .collect();
    lat.sort_unstable();
    let mean = if lat.is_empty() {
        Duration::ZERO
    } else {
        lat.iter().sum::<Duration>() / lat.len() as u32
    };

    // Whole-contract wall-clock latency, plan → last function done.
    // Naive gives per-input-contract figures; the dedup run gives
    // per-distinct figures under function-grained scheduling. Both sides
    // are taken at the machine's real parallelism (the naive run above
    // and the matching sweep point here): comparing an oversubscribed
    // dedup run against a non-oversubscribed naive baseline would charge
    // kernel time-slicing — every contract in flight when its worker is
    // descheduled absorbs a preemption quantum — to the scheduler. The
    // sweep table still reports every worker count's tail unfiltered.
    let mut naive_clat = naive.contract_latencies.clone();
    naive_clat.sort_unstable();
    let mut dedup_clat = latency_reference.expect("machine_workers is in the sweep");
    dedup_clat.sort_unstable();

    // Per-rule *exclusive* inference time, heaviest first; the shared
    // index/dispatch bucket is reported separately so the figures sum to
    // the inference phase.
    let mut rule_time = profile.rule_time.clone();
    rule_time.sort_by_key(|r| std::cmp::Reverse(r.1));

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"corpus\": {{ \"contracts\": {}, \"distinct_contracts\": {}, \
         \"duplication_factor\": {:.2}, \"functions\": {}, \"workers\": {} }},\n",
        codes.len(),
        dedup.dedup.distinct_contracts,
        codes.len() as f64 / dedup.dedup.distinct_contracts.max(1) as f64,
        functions,
        REFERENCE_WORKERS,
    ));
    json.push_str(&format!(
        "  \"naive\": {{ \"seconds\": {:.4}, \"contracts_per_sec\": {:.2}, \
         \"functions_per_sec\": {:.2} }},\n",
        naive_secs,
        codes.len() as f64 / naive_secs.max(1e-9),
        functions as f64 / naive_secs.max(1e-9),
    ));
    json.push_str(&format!(
        "  \"dedup\": {{ \"seconds\": {:.4}, \"contracts_per_sec\": {:.2}, \
         \"functions_per_sec\": {:.2}, \"speedup\": {:.2}, \"dedup_rate\": {:.4}, \
         \"contract_cache_hit_rate\": {:.4}, \"function_cache_hit_rate\": {:.4} }},\n",
        dedup_secs,
        codes.len() as f64 / dedup_secs.max(1e-9),
        functions as f64 / dedup_secs.max(1e-9),
        speedup,
        dedup.dedup.dedup_rate(),
        cache.contract_hit_rate(),
        cache.function_hit_rate(),
    ));
    let machine_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    json.push_str(&format!(
        "  \"machine\": {{ \"available_parallelism\": {machine_parallelism} }},\n",
    ));
    json.push_str("  \"scaling\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"workers\": {}, \"oversubscribed\": {}, \"seconds\": {:.4}, \
             \"contracts_per_sec\": {:.2}, \"speedup_vs_naive\": {:.2}, \
             \"latency\": {{ \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \
             \"max_us\": {:.1} }}, \
             \"steals\": {}, \"steal_failures\": {}, \"steal_backoffs\": {}, \
             \"contention\": {} }}{}\n",
            p.workers,
            // Honest scaling: points beyond the machine's real
            // parallelism only measure kernel time-slicing, not the
            // scheduler — flag them so readers (and CI) discount them.
            p.workers > machine_parallelism,
            p.secs,
            codes.len() as f64 / p.secs.max(1e-9),
            naive_secs / p.secs.max(1e-9),
            micros(p.p50),
            micros(p.p90),
            micros(p.p99),
            micros(p.max),
            p.steals,
            p.steal_failures,
            p.steal_backoffs,
            p.contention,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"exec\": {{ \"steps\": {}, \"paths\": {}, \"forks\": {}, \
         \"worklist_peak\": {}, \
         \"worklist_contention\": {}, \"steals\": {}, \"steal_failures\": {}, \
         \"functions_explored\": {}, \
         \"tase_ms\": {:.2}, \"infer_ms\": {:.2} }},\n",
        profile.exec.steps,
        profile.exec.paths,
        profile.exec.forks,
        profile.exec.worklist_peak,
        profile.exec.worklist_contention,
        profile.exec.steals,
        profile.exec.steal_failures,
        profile.functions_explored,
        profile.tase_time.as_secs_f64() * 1e3,
        profile.infer_time.as_secs_f64() * 1e3,
    ));
    json.push_str(&format!(
        "  \"phases\": {{ \"compile_ms\": {:.2}, \
         \"lazy_blocks_skipped\": {}, \"explore_ms\": {:.2}, \
         \"infer_ms\": {:.2}, \"infer_index_ms\": {:.2}, \
         \"infer_match_ms\": {:.2}, \"infer_refine_ms\": {:.2} }},\n",
        profile.compile_time.as_secs_f64() * 1e3,
        profile.lazy_blocks_skipped,
        profile.tase_time.as_secs_f64() * 1e3,
        profile.infer_time.as_secs_f64() * 1e3,
        profile.infer_index_time.as_secs_f64() * 1e3,
        profile.infer_match_time.as_secs_f64() * 1e3,
        profile.infer_refine_time.as_secs_f64() * 1e3,
    ));
    json.push_str(&format!(
        "  \"block_vs_instr\": {{ \"block_seconds\": {:.4}, \"instr_seconds\": {:.4}, \
         \"wall_speedup\": {:.2}, \"block_tase_ms\": {:.2}, \"instr_tase_ms\": {:.2}, \
         \"tase_speedup\": {:.2}, \"block_compile_ms\": {:.2} }},\n",
        probe.block_secs,
        probe.instr_secs,
        probe.wall_speedup(),
        probe.block_tase * 1e3,
        probe.instr_tase * 1e3,
        probe.tase_speedup(),
        probe.block_compile * 1e3,
    ));
    json.push_str(&format!(
        "  \"tree_vs_perrule\": {{ \"tree_seconds\": {:.4}, \
         \"perrule_seconds\": {:.4}, \"tree_taseinfer_ms\": {:.2}, \
         \"perrule_taseinfer_ms\": {:.2}, \"taseinfer_speedup\": {:.2}, \
         \"tree_infer_ms\": {:.2}, \"perrule_infer_ms\": {:.2}, \
         \"infer_speedup\": {:.2} }},\n",
        inf_probe.tree_secs,
        inf_probe.perrule_secs,
        inf_probe.tree_taseinfer * 1e3,
        inf_probe.perrule_taseinfer * 1e3,
        inf_probe.taseinfer_speedup(),
        inf_probe.tree_infer * 1e3,
        inf_probe.perrule_infer * 1e3,
        inf_probe.infer_speedup(),
    ));
    json.push_str("  \"rule_time_top_ms\": [ ");
    for (i, (rule, time)) in rule_time.iter().take(5).enumerate() {
        json.push_str(&format!(
            "{}{{ \"rule\": \"{}\", \"exclusive_ms\": {:.2} }}",
            if i > 0 { ", " } else { "" },
            rule,
            time.as_secs_f64() * 1e3,
        ));
    }
    json.push_str(" ],\n");
    json.push_str(&format!(
        "  \"rule_time_shared_ms\": {:.2},\n",
        profile.infer_shared_time.as_secs_f64() * 1e3,
    ));
    json.push_str(&format!(
        "  \"latency\": {{ \"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"max_us\": {:.1}, \"max_over_p99\": {:.2} }},\n",
        micros(mean),
        micros(percentile(&lat, 0.50)),
        micros(percentile(&lat, 0.99)),
        micros(*lat.last().unwrap_or(&Duration::ZERO)),
        tail_ratio(&lat),
    ));
    let naive_p99 = percentile(&naive_clat, 0.99);
    let dedup_p99 = percentile(&dedup_clat, 0.99);
    json.push_str(&format!(
        "  \"contract_latency\": {{ \"naive_p99_us\": {:.1}, \"naive_max_us\": {:.1}, \
         \"naive_max_over_p99\": {:.2}, \"dedup_p99_us\": {:.1}, \"dedup_max_us\": {:.1}, \
         \"dedup_max_over_p99\": {:.2}, \"dedup_p99_over_naive_p99\": {:.2}, \
         \"heavy_admissions\": {} }}\n",
        micros(naive_p99),
        micros(*naive_clat.last().unwrap_or(&Duration::ZERO)),
        tail_ratio(&naive_clat),
        micros(dedup_p99),
        micros(*dedup_clat.last().unwrap_or(&Duration::ZERO)),
        tail_ratio(&dedup_clat),
        dedup_p99.as_secs_f64() / naive_p99.as_secs_f64().max(1e-9),
        dedup.heavy_admissions,
    ));
    json.push_str("}\n");
    if let Err(e) = std::fs::write("BENCH_throughput.json", &json) {
        eprintln!("warning: could not write BENCH_throughput.json: {e}");
    }

    let mut t = TextTable::new(&["metric", "naive", "dedup"]);
    t.row(&[
        "contracts".into(),
        codes.len().to_string(),
        codes.len().to_string(),
    ]);
    t.row(&[
        "distinct".into(),
        codes.len().to_string(),
        dedup.dedup.distinct_contracts.to_string(),
    ]);
    t.row(&[
        "seconds".into(),
        format!("{naive_secs:.3}"),
        format!("{dedup_secs:.3}"),
    ]);
    t.row(&[
        "contracts/s".into(),
        format!("{:.1}", codes.len() as f64 / naive_secs.max(1e-9)),
        format!("{:.1}", codes.len() as f64 / dedup_secs.max(1e-9)),
    ]);
    t.row(&[
        "functions/s".into(),
        format!("{:.1}", functions as f64 / naive_secs.max(1e-9)),
        format!("{:.1}", functions as f64 / dedup_secs.max(1e-9)),
    ]);
    t.row(&["speedup".into(), "1.0×".into(), format!("{speedup:.1}×")]);
    for p in &sweep {
        t.row(&[
            format!("contracts/s @{}w", p.workers),
            "—".into(),
            format!("{:.1}", codes.len() as f64 / p.secs.max(1e-9)),
        ]);
        t.row(&[
            format!("p99/max contract @{}w", p.workers),
            "—".into(),
            format!("{:.0}µs / {:.0}µs", micros(p.p99), micros(p.max)),
        ]);
        t.row(&[
            format!("steals/parks @{}w", p.workers),
            "—".into(),
            format!("{} / {}", p.steals, p.contention),
        ]);
    }
    t.row(&[
        "dedup rate".into(),
        "—".into(),
        crate::report::pct(dedup.dedup.dedup_rate()),
    ]);
    t.row(&[
        "fn-cache hit rate".into(),
        "—".into(),
        crate::report::pct(cache.function_hit_rate()),
    ]);
    t.row(&[
        "engine TASE speedup".into(),
        "1.0× (instr)".into(),
        format!("{:.1}× (block)", probe.tase_speedup()),
    ]);
    t.row(&[
        "infer TASE+infer speedup".into(),
        "1.0× (per-rule)".into(),
        format!("{:.1}× (tree)", inf_probe.taseinfer_speedup()),
    ]);
    t.row(&[
        "infer phase speedup".into(),
        "1.0× (per-rule)".into(),
        format!("{:.1}× (tree)", inf_probe.infer_speedup()),
    ]);
    t.row(&[
        "scheduler parks (ref)".into(),
        "—".into(),
        profile.exec.worklist_contention.to_string(),
    ]);
    t.row(&[
        "steals / failed probes (ref)".into(),
        "—".into(),
        format!("{} / {}", profile.exec.steals, profile.exec.steal_failures),
    ]);
    t.row(&[
        "p99 fn latency".into(),
        format!("{:?}", percentile(&lat, 0.99)),
        "—".into(),
    ]);
    t.row(&[
        "max/p99 fn".into(),
        format!("{:.1}×", tail_ratio(&lat)),
        "—".into(),
    ]);
    t.row(&[
        "max/p99 contract".into(),
        format!("{:.1}×", tail_ratio(&naive_clat)),
        format!("{:.1}×", tail_ratio(&dedup_clat)),
    ]);
    format!(
        "Throughput — dedup-aware function-grained batch vs naive over a \
         {:.0}×-duplicated corpus (signatures verified identical at every \
         worker count; BENCH_throughput.json written)\n{}",
        codes.len() as f64 / dedup.dedup.distinct_contracts.max(1) as f64,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_duplication_covers_every_template_exactly_total() {
        let distinct: Vec<Vec<u8>> = (0u8..7).map(|i| vec![i; 4]).collect();
        let codes = duplicate_with_skew(&distinct, 100, 9);
        assert_eq!(codes.len(), 100);
        for d in &distinct {
            assert!(codes.contains(d), "template missing from corpus");
        }
        // The head template dominates the tail one (harmonic skew).
        let count = |d: &Vec<u8>| codes.iter().filter(|c| *c == d).count();
        assert!(count(&distinct[0]) > count(&distinct[6]));
    }

    #[test]
    fn duplication_is_deterministic_in_the_seed() {
        let distinct: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i; 2]).collect();
        assert_eq!(
            duplicate_with_skew(&distinct, 30, 5),
            duplicate_with_skew(&distinct, 30, 5)
        );
        assert_ne!(
            duplicate_with_skew(&distinct, 30, 5),
            duplicate_with_skew(&distinct, 30, 6)
        );
    }

    #[test]
    fn percentile_picks_from_sorted() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile(&lat, 0.0), Duration::from_micros(1));
        assert_eq!(percentile(&lat, 1.0), Duration::from_micros(100));
        assert!(percentile(&lat, 0.5) <= percentile(&lat, 0.99));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn tail_ratio_degenerate_is_one() {
        assert_eq!(tail_ratio(&[]), 1.0);
        let lat = vec![Duration::ZERO, Duration::ZERO];
        assert_eq!(tail_ratio(&lat), 1.0);
    }
}
