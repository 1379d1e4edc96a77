//! The traced run: spans around calls into each layer's public
//! functions, kept in memory per thread and written out at the end.
//!
//! On the closed-loop workloads each round runs four passes over the pool:
//!
//! 1. `staged` untraced — the pipeline decomposed into its public stage
//!    calls (`Disassembly::new`, `extract_dispatch_diag`,
//!    `Program::compile_reachable`, `Tase::explore_stats`, `infer_timed`);
//! 2. `staged` traced — the same calls, each wrapped in a span; the
//!    difference in wall time against pass 1 is the tracing overhead;
//! 3. `reference` — `SigRec::recover_cold_with_outcome` per contract, one
//!    span per call; its parameters must equal the staged ones, and its
//!    time minus the staged layers' self time is the pipeline remainder
//!    (plan, seal and assemble glue that no layer call covers);
//! 4. `pipeline` — `recover_with_outcome` on a fresh instance, for the
//!    cache hit rates (`cache_stats()`).
//!
//! Accounting identity, per round: Σ layer self time + remainder + idle
//! = clients × wall of the reference pass, where idle is the part of the
//! clients' wall time no reference call covers.

use crate::check::{check_case, Accuracy};
use crate::closed::{guarded, pass};
use crate::inputs::Case;
use crate::util::{median, Report};
use crate::WORK_DIR;
use sigrec_abi::{AbiType, Selector};
use sigrec_core::{extract_dispatch_diag, infer_timed, SigRec, Tase, TaseConfig};
use sigrec_evm::{Disassembly, Program};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names. Leaves are the layer calls; `Contract` is one request's
/// root, and `Reference` wraps a whole unstaged pipeline call. `Epoch`
/// stays last: `Layer::COUNT` is derived from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Contract,
    Disasm,
    Extract,
    Compile,
    Explore,
    Infer,
    Reference,
    StoreOpen,
    Batch,
    Linked,
    Flush,
    Epoch,
}

impl Layer {
    /// Number of layers, for per-layer arrays.
    const COUNT: usize = Layer::Epoch as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Contract => "contract",
            Layer::Disasm => "evm.disasm",
            Layer::Extract => "core.extract",
            Layer::Compile => "evm.program.compile",
            Layer::Explore => "core.exec.explore",
            Layer::Infer => "core.infer",
            Layer::Reference => "core.pipeline.recover_cold",
            Layer::StoreOpen => "core.store.open",
            Layer::Batch => "core.batch.recover_batch",
            Layer::Linked => "core.pipeline.recover_linked",
            Layer::Flush => "core.store.flush",
            Layer::Epoch => "replay.epoch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy)]
pub struct Span {
    pub parent: u32,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

/// A per-thread span recorder.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer`, child of the innermost open span.
    pub fn enter(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            parent,
            layer,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, the innermost open one.
    pub fn exit(&mut self, id: u32) {
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        self.spans[id as usize].end = self.now();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time per layer (span duration minus its direct children),
    /// and total time per layer, both in nanoseconds.
    pub fn times(&self) -> ([u64; Layer::COUNT], [u64; Layer::COUNT]) {
        let (mut own, mut total) = ([0u64; Layer::COUNT], [0u64; Layer::COUNT]);
        for s in &self.spans {
            let d = s.end - s.start;
            own[s.layer.index()] += d;
            total[s.layer.index()] += d;
            if s.parent != NO_PARENT {
                let p = self.spans[s.parent as usize].layer.index();
                own[p] -= d;
            }
        }
        (own, total)
    }
}

/// Writes every recorder's spans as tab-separated lines (thread, id,
/// parent, name, start_ns, end_ns) to the work directory.
pub fn write_spans(file: &str, recorders: &[&Recorder]) -> std::io::Result<String> {
    std::fs::create_dir_all(WORK_DIR)?;
    let path = format!("{WORK_DIR}/{file}");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(w, "thread\tid\tparent\tname\tstart_ns\tend_ns")?;
    for (t, r) in recorders.iter().enumerate() {
        for (id, s) in r.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t}\t{id}\t{parent}\t{}\t{}\t{}",
                s.layer.name(),
                s.start,
                s.end
            )?;
        }
    }
    w.flush()?;
    Ok(path)
}

/// Work counters of one staged recovery.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub instructions: u64,
    pub entries: u64,
    pub blocks_compiled: u64,
    pub blocks_skipped: u64,
    pub steps: u64,
    pub paths: u64,
    pub forks: u64,
    pub budget_cuts: u64,
    pub infer_index_ns: u64,
    pub infer_match_ns: u64,
    pub infer_refine_ns: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.instructions += o.instructions;
        self.entries += o.entries;
        self.blocks_compiled += o.blocks_compiled;
        self.blocks_skipped += o.blocks_skipped;
        self.steps += o.steps;
        self.paths += o.paths;
        self.forks += o.forks;
        self.budget_cuts += o.budget_cuts;
        self.infer_index_ns += o.infer_index_ns;
        self.infer_match_ns += o.infer_match_ns;
        self.infer_refine_ns += o.infer_refine_ns;
    }
}

/// Recovered `(selector, params)` in dispatcher order.
type Params = Vec<(Selector, Vec<AbiType>)>;

/// Runs `f` inside a span of `layer` when recording, bare otherwise.
pub fn timed<T>(rec: Option<&mut Recorder>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(layer, f),
        None => f(),
    }
}

/// One contract through the public stage calls, in the order and with
/// the configuration `recover_cold` uses. With a recorder, the contract
/// is a root span and every stage call a child span.
fn staged(code: &[u8], mut rec: Option<&mut Recorder>, config: TaseConfig) -> (Params, Counts) {
    let mut counts = Counts::default();
    let root = rec.as_deref_mut().map(|r| r.enter(Layer::Contract));
    let disasm = timed(rec.as_deref_mut(), Layer::Disasm, || Disassembly::new(code));
    counts.instructions += disasm.len() as u64;
    let extraction = timed(rec.as_deref_mut(), Layer::Extract, || {
        extract_dispatch_diag(&disasm)
    });
    counts.entries += extraction.table.len() as u64;
    let entry_pcs: Vec<usize> = extraction.table.iter().map(|e| e.entry).collect();
    let program = timed(rec.as_deref_mut(), Layer::Compile, || {
        Arc::new(Program::compile_reachable(&disasm, &entry_pcs))
    });
    counts.blocks_compiled += program.compiled_block_count() as u64;
    counts.blocks_skipped += program.uncompiled_block_count() as u64;
    let mut params = Vec::with_capacity(extraction.table.len());
    for entry in &extraction.table {
        let (facts, exec) = timed(rec.as_deref_mut(), Layer::Explore, || {
            Tase::new(&disasm, config)
                .with_program(Arc::clone(&program))
                .explore_stats(entry.entry)
        });
        counts.steps += exec.steps;
        counts.paths += exec.paths;
        counts.forks += exec.forks;
        counts.budget_cuts += u64::from(facts.budgets.iter().any(|b| b.is_lossy()));
        let (result, timing) = timed(rec.as_deref_mut(), Layer::Infer, || {
            infer_timed(&facts, config.infer_engine)
        });
        counts.infer_index_ns += timing.index_nanos;
        counts.infer_match_ns += timing.match_nanos;
        counts.infer_refine_ns += timing.refine_nanos;
        // A delegating body is a router: the pipeline reports no
        // parameters for it.
        let p = if facts.delegate.is_some() {
            Vec::new()
        } else {
            result.params
        };
        params.push((entry.selector, p));
    }
    if let (Some(r), Some(id)) = (rec, root) {
        r.exit(id);
    }
    (params, counts)
}

/// Per-round figures of the closed-loop traced run.
#[derive(Default)]
struct Round {
    own_ms: [f64; Layer::COUNT],
    counts: Counts,
    staged_wall: f64,
    traced_wall: f64,
    reference_sum_ms: f64,
    reference_clients_wall_ms: f64,
    contract_hit_rate: f64,
    function_hit_rate: f64,
    program_hit_rate: f64,
}

/// The traced closed-loop run: prints every per-layer metric.
pub fn run_closed(
    workload: &str,
    cases: &[Case],
    clients: usize,
    seconds: f64,
    report: &mut Report,
) {
    let codes: Vec<&[u8]> = cases.iter().map(|c| c.code.as_slice()).collect();
    let n = codes.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_spans: Vec<Recorder> = Vec::new();
    let mut mismatches = 0u64;
    // Work counts depend only on the inputs, so one untimed pass with the
    // executor's per-fork counters on gives them; the timed passes run
    // with the pipeline's default configuration, which skips the probes.
    let timed_config = TaseConfig::default();
    let counting = TaseConfig {
        collect_stats: true,
        ..timed_config
    };
    let mut work = Counts::default();
    for (_, calls) in pass(clients, n, || (), |_, i| staged(codes[i], None, counting).1).1 {
        for (_, c, _) in calls {
            work.add(&c);
        }
    }
    while rounds.is_empty() || Instant::now() < deadline {
        let mut round = Round::default();
        let (wall, _) = pass(
            clients,
            n,
            || (),
            |_, i| black(staged(codes[i], None, timed_config)),
        );
        round.staged_wall = wall;

        let epoch = Instant::now();
        let (wall, traced) = pass(
            clients,
            n,
            || Recorder::new(epoch),
            |r, i| staged(codes[i], Some(r), timed_config),
        );
        round.traced_wall = wall;
        let mut staged_params: Vec<Params> = vec![Vec::new(); n];
        let mut recorders = Vec::new();
        for (r, calls) in traced {
            let (own, _) = r.times();
            for (slot, ns) in round.own_ms.iter_mut().zip(own) {
                *slot += ns as f64 / 1e6;
            }
            for (i, (params, counts), _) in calls {
                round.counts.add(&counts);
                staged_params[i] = params;
            }
            recorders.push(r);
        }

        let epoch = Instant::now();
        let reference = SigRec::new();
        let (wall, calls) = pass(
            clients,
            n,
            || Recorder::new(epoch),
            |r, i| {
                r.span(Layer::Reference, || {
                    guarded(|| reference.recover_cold_with_outcome(codes[i]))
                })
            },
        );
        round.reference_clients_wall_ms = clients as f64 * wall * 1e3;
        for (r, calls) in calls {
            let (_, total) = r.times();
            round.reference_sum_ms += total[Layer::Reference.index()] as f64 / 1e6;
            for (i, out, _) in calls {
                let problem = match out {
                    Ok(o) => {
                        let cold: Params = o
                            .functions
                            .iter()
                            .map(|f| (f.selector, f.params.clone()))
                            .collect();
                        if cold != staged_params[i] {
                            mismatches += 1;
                            Some(format!(
                                "{}: staged parameters differ from recover_cold",
                                cases[i].family
                            ))
                        } else {
                            check_case(&cases[i], &o, &mut Accuracy::default())
                        }
                    }
                    Err(panic) => Some(format!("{}: panicked: {panic}", cases[i].family)),
                };
                report.check(problem);
            }
        }

        let pipeline = SigRec::new();
        pass(
            clients,
            n,
            || (),
            |_, i| black(guarded(|| pipeline.recover_with_outcome(codes[i]))),
        );
        let cache = pipeline.cache_stats();
        round.contract_hit_rate = cache.contract_hit_rate();
        round.function_hit_rate = cache.function_hit_rate();
        round.program_hit_rate = cache.program_hit_rate();
        rounds.push(round);
        last_spans = recorders;
    }
    let refs: Vec<&Recorder> = last_spans.iter().collect();
    match write_spans(&format!("spans-{workload}.tsv"), &refs) {
        Ok(path) => report.info("spans_file", path),
        Err(e) => report.fail(format!("writing spans: {e}")),
    }

    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let own = |l: Layer| med(&|r: &Round| r.own_ms[l.index()]);
    let layers = [
        Layer::Disasm,
        Layer::Extract,
        Layer::Compile,
        Layer::Explore,
        Layer::Infer,
    ];
    let layer_sum = med(&|r: &Round| layers.iter().map(|l| r.own_ms[l.index()]).sum());
    let remainder = med(&|r: &Round| {
        r.reference_sum_ms - layers.iter().map(|l| r.own_ms[l.index()]).sum::<f64>()
    });
    let clients_wall = med(&|r: &Round| r.reference_clients_wall_ms);
    let idle = med(&|r: &Round| r.reference_clients_wall_ms - r.reference_sum_ms);
    let overhead = med(&|r: &Round| (r.traced_wall - r.staged_wall) * 1e3);
    let count = |f: &dyn Fn(&Counts) -> u64| f(&work) as f64;
    let ns_ms = |f: &dyn Fn(&Counts) -> u64| med(&|r: &Round| f(&r.counts) as f64 / 1e6);

    report.info("rounds", rounds.len());
    report.info("contracts_per_pass", n);
    report.info(
        "per_layer_basis",
        "per pass over the pool, median over rounds",
    );
    // The identity holds within one round; the metrics are medians.
    let last = rounds.last().expect("at least one round");
    let last_layers: f64 = layers.iter().map(|l| last.own_ms[l.index()]).sum();
    report.info(
        "accounting_last_round",
        format!(
            "layers {last_layers:.3} ms + remainder {:.3} ms + idle {:.3} ms \
             = clients x wall {:.3} ms (reference pass)",
            last.reference_sum_ms - last_layers,
            last.reference_clients_wall_ms - last.reference_sum_ms,
            last.reference_clients_wall_ms,
        ),
    );
    report.info("staged_vs_recover_cold_mismatches", mismatches);

    report.metric("evm.disasm.ms", own(Layer::Disasm), "ms");
    report.metric(
        "evm.disasm.instructions",
        count(&|c| c.instructions),
        "count",
    );
    report.metric("core.extract.ms", own(Layer::Extract), "ms");
    report.metric("core.extract.entries", count(&|c| c.entries), "count");
    report.metric("evm.program.compile_ms", own(Layer::Compile), "ms");
    report.metric(
        "evm.program.blocks_compiled",
        count(&|c| c.blocks_compiled),
        "count",
    );
    report.metric(
        "evm.program.blocks_skipped",
        count(&|c| c.blocks_skipped),
        "count",
    );
    report.metric("core.exec.explore_ms", own(Layer::Explore), "ms");
    report.metric("core.exec.steps", count(&|c| c.steps), "count");
    report.metric("core.exec.paths", count(&|c| c.paths), "count");
    report.metric("core.exec.forks", count(&|c| c.forks), "count");
    report.metric("core.exec.budget_cuts", count(&|c| c.budget_cuts), "count");
    report.metric("core.infer.ms", own(Layer::Infer), "ms");
    report.metric("core.infer.index_ms", ns_ms(&|c| c.infer_index_ns), "ms");
    report.metric("core.infer.match_ms", ns_ms(&|c| c.infer_match_ns), "ms");
    report.metric("core.infer.refine_ms", ns_ms(&|c| c.infer_refine_ns), "ms");
    report.metric("core.pipeline.remainder_ms", remainder, "ms");
    report.metric("core.pipeline.linked_ms", 0.0, "ms");
    report.metric(
        "core.cache.contract_hit_rate",
        med(&|r: &Round| r.contract_hit_rate),
        "ratio",
    );
    report.metric(
        "core.cache.function_hit_rate",
        med(&|r: &Round| r.function_hit_rate),
        "ratio",
    );
    report.metric(
        "core.cache.program_hit_rate",
        med(&|r: &Round| r.program_hit_rate),
        "ratio",
    );
    crate::replay::store_metrics_absent(report);
    report.metric("trace.layer_self_ms", layer_sum, "ms");
    report.metric("trace.clients_x_wall_ms", clients_wall, "ms");
    report.metric("trace.idle_ms", idle, "ms");
    report.metric("trace.overhead_ms", overhead, "ms");
    report.metric("trace.mismatches", mismatches as f64, "count");
}

/// Keeps a result alive past the optimiser.
fn black<T>(v: T) -> T {
    std::hint::black_box(v)
}

/// The closed-loop layer metrics, zero on workloads that do not run the
/// staged decomposition.
pub fn closed_metrics_absent(report: &mut Report) {
    for (name, unit) in [
        ("evm.disasm.ms", "ms"),
        ("evm.disasm.instructions", "count"),
        ("core.extract.ms", "ms"),
        ("core.extract.entries", "count"),
        ("evm.program.compile_ms", "ms"),
        ("evm.program.blocks_compiled", "count"),
        ("evm.program.blocks_skipped", "count"),
        ("core.exec.explore_ms", "ms"),
        ("core.exec.steps", "count"),
        ("core.exec.paths", "count"),
        ("core.exec.forks", "count"),
        ("core.exec.budget_cuts", "count"),
        ("core.infer.ms", "ms"),
        ("core.infer.index_ms", "ms"),
        ("core.infer.match_ms", "ms"),
        ("core.infer.refine_ms", "ms"),
        ("core.pipeline.remainder_ms", "ms"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
