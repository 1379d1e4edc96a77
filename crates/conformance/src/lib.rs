//! # sigrec-conformance
//!
//! Metamorphic differential conformance harness for the SigRec pipeline.
//!
//! Two oracles, neither of which needs ground truth at check time:
//!
//! 1. **Differential**: for one bytecode, every execution path through the
//!    pipeline — [`SigRec::recover`] cold and warm, `recover_cold`,
//!    [`recover_batch`] and [`recover_batch_naive`], under both
//!    execution engines, plus a cold recovery under the *other*
//!    [`InferEngine`] (tree vs per-rule matcher), plus
//!    a cache shared across variants and a whole-corpus batch — must
//!    recover a structurally identical result.
//! 2. **Metamorphic**: a [`Transform`] re-emits the same source under a
//!    behaviour-preserving knob (dispatcher shape, comparison order,
//!    declaration order, junk padding, tool-chain era); the recovered
//!    *signature set* must be invariant across all variants of one
//!    source.
//!
//! Any violation is shrunk with `sigrec_core::shrink::minimize` over the
//! source's function list — candidates are *recompiled*, so the reported
//! reproducer is always well-formed bytecode. Alongside the oracles the
//! harness counts which of the paper's rules R1–R31 fired
//! ([`ConformanceReport::rule_hits`]) and asserts full coverage; the
//! `sigrec-conformance` binary writes the machine-readable report to
//! `CONFORMANCE_coverage.json` and exits non-zero on any mismatch or
//! uncovered rule.

#![warn(missing_docs)]

use sigrec_core::exec::ExecEngine;
use sigrec_core::{
    recover_batch, recover_batch_naive, Diagnostic, InferEngine, PersistentStore,
    RecoveredFunction, RecoveryCache, RuleId, RuleStats, SigRec, TaseConfig,
};
use sigrec_corpus::metamorph::{standard_transforms, SourceContract, Transform};
use sigrec_corpus::scenario::{
    scenario_corpus, DispatchScenario, ScenarioBundle, ScenarioClass, ScenarioExpectation,
};
use std::collections::BTreeMap;

/// One observed conformance violation.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The source family ([`SourceContract::describe`]).
    pub source: String,
    /// The transform under which the violation appeared.
    pub transform: String,
    /// The execution path (or cross-variant relation) that disagreed.
    pub path: String,
    /// First differing digest entry, `expected != got`.
    pub detail: String,
    /// The ddmin-shrunk reproducer, when shrinking was possible.
    pub minimized: Option<Minimized>,
}

/// A minimal reproducer for a [`Mismatch`].
#[derive(Clone, Debug)]
pub struct Minimized {
    /// Description of the shrunk source.
    pub source: String,
    /// Functions left after shrinking.
    pub functions: usize,
    /// The transformed bytecode that still reproduces, hex-encoded.
    pub bytecode_hex: String,
}

/// The outcome of checking one `(source, transform)` case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Reference recovery of the transformed bytecode (cold, default
    /// configuration).
    pub functions: Vec<RecoveredFunction>,
    /// Execution paths compared.
    pub paths: usize,
    /// The violation, if any (already shrunk).
    pub mismatch: Option<Mismatch>,
}

/// Harness options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for the per-source transform battery.
    pub seed: u64,
    /// Worker count for the whole-corpus batch check.
    pub batch_workers: usize,
    /// Which inference engine the checked paths run under. Every case
    /// additionally runs one cold recovery under the *other* engine and
    /// diffs the structural digest, so a full run under either engine
    /// also proves cross-engine equivalence on the whole corpus.
    pub infer_engine: InferEngine,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 0x0051_e7ec,
            batch_workers: 4,
            infer_engine: InferEngine::default(),
        }
    }
}

/// Aggregated result of a conformance run.
#[derive(Clone, Debug, Default)]
pub struct ConformanceReport {
    /// Source contracts checked.
    pub contracts: usize,
    /// `(source, transform)` cases checked.
    pub cases: usize,
    /// Individual execution-path comparisons performed.
    pub paths_checked: usize,
    /// How often each rule R1–R31 fired across every reference recovery.
    pub rule_hits: RuleStats,
    /// Checked cases per dispatcher scenario class
    /// ([`ScenarioClass::name`] → count). A class at zero means the
    /// deployment-shape battery regressed to not exercising it, which
    /// [`is_green`](Self::is_green) treats as a failure in its own right.
    pub scenario_class_hits: BTreeMap<String, usize>,
    /// All violations found.
    pub mismatches: Vec<Mismatch>,
}

impl ConformanceReport {
    /// Rules that never fired.
    pub fn uncovered(&self) -> Vec<RuleId> {
        RuleId::ALL
            .iter()
            .copied()
            .filter(|&r| self.rule_hits.count(r) == 0)
            .collect()
    }

    /// Dispatcher scenario classes with zero covered cases.
    pub fn uncovered_scenarios(&self) -> Vec<&'static str> {
        ScenarioClass::all()
            .iter()
            .map(|c| c.name())
            .filter(|name| self.scenario_class_hits.get(*name).copied().unwrap_or(0) == 0)
            .collect()
    }

    /// True when every rule fired, every scenario class was exercised,
    /// and no path disagreed.
    pub fn is_green(&self) -> bool {
        self.mismatches.is_empty()
            && self.uncovered().is_empty()
            && self.uncovered_scenarios().is_empty()
    }

    /// A human-readable summary block.
    pub fn summary(&self) -> String {
        let covered = RuleId::ALL.len() - self.uncovered().len();
        let class_total = ScenarioClass::all().len();
        let mut out = format!(
            "conformance: {} contracts, {} cases, {} paths compared\n\
             rule coverage: {}/{} ({})\n\
             scenario classes: {}/{} ({})\n\
             mismatches: {}\n",
            self.contracts,
            self.cases,
            self.paths_checked,
            covered,
            RuleId::ALL.len(),
            if self.uncovered().is_empty() {
                "full".to_string()
            } else {
                let missing: Vec<String> = self.uncovered().iter().map(|r| r.to_string()).collect();
                format!("missing {}", missing.join(", "))
            },
            class_total - self.uncovered_scenarios().len(),
            class_total,
            if self.uncovered_scenarios().is_empty() {
                "full".to_string()
            } else {
                format!("missing {}", self.uncovered_scenarios().join(", "))
            },
            self.mismatches.len(),
        );
        for m in &self.mismatches {
            out.push_str(&format!(
                "  [{}] {} under {}: {}\n",
                m.path, m.source, m.transform, m.detail
            ));
            if let Some(min) = &m.minimized {
                out.push_str(&format!(
                    "    minimized to {} function(s): {} ({} bytes)\n",
                    min.functions,
                    min.source,
                    min.bytecode_hex.len() / 2
                ));
            }
        }
        out
    }

    /// The machine-readable report (hand-rolled JSON, no serde).
    pub fn to_json(&self) -> String {
        let uncovered: Vec<String> = self.uncovered().iter().map(|r| r.to_string()).collect();
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"contracts\": {},\n", self.contracts));
        json.push_str(&format!("  \"cases\": {},\n", self.cases));
        json.push_str(&format!("  \"paths_checked\": {},\n", self.paths_checked));
        json.push_str(&format!(
            "  \"rules_covered\": {},\n  \"rules_total\": {},\n",
            RuleId::ALL.len() - uncovered.len(),
            RuleId::ALL.len()
        ));
        json.push_str(&format!(
            "  \"uncovered\": [{}],\n",
            uncovered
                .iter()
                .map(|r| format!("\"{r}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str("  \"rule_hits\": {\n");
        let hits: Vec<String> = self
            .rule_hits
            .iter()
            .map(|(r, n)| format!("    \"{r}\": {n}"))
            .collect();
        json.push_str(&hits.join(",\n"));
        json.push_str("\n  },\n");
        // Per-class coverage table for the dispatcher-scenario battery.
        // Every class is listed (zeroes included) so CI can gate on "no
        // class reports 0 covered cases" without knowing the class list.
        let class_total = ScenarioClass::all().len();
        json.push_str(&format!(
            "  \"scenario_classes_covered\": {},\n  \"scenario_classes_total\": {},\n",
            class_total - self.uncovered_scenarios().len(),
            class_total
        ));
        json.push_str("  \"scenario_classes\": {\n");
        let classes: Vec<String> = ScenarioClass::all()
            .iter()
            .map(|c| {
                let n = self.scenario_class_hits.get(c.name()).copied().unwrap_or(0);
                format!("    \"{}\": {n}", c.name())
            })
            .collect();
        json.push_str(&classes.join(",\n"));
        json.push_str("\n  },\n");
        json.push_str("  \"mismatches\": [\n");
        let items: Vec<String> = self
            .mismatches
            .iter()
            .map(|m| {
                let minimized = match &m.minimized {
                    Some(min) => format!(
                        "{{ \"source\": \"{}\", \"functions\": {}, \"bytecode\": \"{}\" }}",
                        escape(&min.source),
                        min.functions,
                        min.bytecode_hex
                    ),
                    None => "null".to_string(),
                };
                format!(
                    "    {{ \"source\": \"{}\", \"transform\": \"{}\", \"path\": \"{}\", \
                     \"detail\": \"{}\", \"minimized\": {} }}",
                    escape(&m.source),
                    escape(&m.transform),
                    escape(&m.path),
                    escape(&m.detail),
                    minimized
                )
            })
            .collect();
        json.push_str(&items.join(",\n"));
        if !items.is_empty() {
            json.push('\n');
        }
        json.push_str("  ],\n");
        json.push_str(&format!("  \"green\": {}\n", self.is_green()));
        json.push_str("}\n");
        json
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The structural digest of one recovery, sorted: every execution path on
/// the *same* bytecode must produce exactly this (entries and fired rules
/// included — a cache hit must preserve them, not just the types).
pub fn path_digest(functions: &[RecoveredFunction]) -> Vec<String> {
    let mut out: Vec<String> = functions
        .iter()
        .map(|f| {
            let rules: Vec<String> = f.rules.iter().map(|r| r.to_string()).collect();
            format!(
                "{}@{} {} {:?} [{}]",
                f.selector,
                f.entry,
                f.signature().param_list(),
                f.language,
                rules.join(",")
            )
        })
        .collect();
    out.sort();
    out
}

/// The signature-set digest, sorted: all *variants* of one source must
/// produce exactly this. Entries, rule lists and recovery order may all
/// legitimately differ across variants; selector, types and language may
/// not.
pub fn set_digest(functions: &[RecoveredFunction]) -> Vec<String> {
    let mut out: Vec<String> = functions
        .iter()
        .map(|f| {
            format!(
                "{} {} {:?}",
                f.selector,
                f.signature().param_list(),
                f.language
            )
        })
        .collect();
    out.sort();
    out
}

/// The reference recovery all paths are diffed against: a cold run with
/// the default configuration and no cache.
pub fn recover_reference(code: &[u8]) -> Vec<RecoveredFunction> {
    recover_reference_with(code, InferEngine::default())
}

/// Like [`recover_reference`] under an explicit inference engine.
pub fn recover_reference_with(code: &[u8], engine: InferEngine) -> Vec<RecoveredFunction> {
    let cfg = TaseConfig {
        infer_engine: engine,
        ..TaseConfig::default()
    };
    SigRec::with_config(cfg).recover_cold(code)
}

fn diff(expected: &[String], got: &[String]) -> Option<String> {
    if expected == got {
        return None;
    }
    let first = expected
        .iter()
        .zip(got.iter())
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("expected `{a}`, got `{b}`"));
    Some(
        first.unwrap_or_else(|| {
            format!("expected {} function(s), got {}", expected.len(), got.len())
        }),
    )
}

/// A fresh scratch directory for one persistent-path check, unique per
/// process and call.
fn persist_scratch() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sigrec-conf-store-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every per-bytecode execution path, as `(name, recovery)` pairs: the
/// five pipeline paths (cold, first/warm recover, dedup and naive batch)
/// under both execution engines, plus the persistent-store pair (recover
/// through a store-backed cache, then again across a simulated process
/// restart over the warm store) — twelve in total, with every budget knob
/// other than `exec_engine` taken from `base`. Public so the adversarial
/// fuzz campaign can re-run the exact same paths under tightened budgets.
pub fn execution_paths(base: &TaseConfig, code: &[u8]) -> Vec<(String, Vec<RecoveredFunction>)> {
    let mut out = Vec::new();
    for (engine, tag) in [(ExecEngine::Block, "block"), (ExecEngine::Instr, "instr")] {
        let cfg = TaseConfig {
            exec_engine: engine,
            ..*base
        };
        out.push((
            format!("recover-cold[{tag}]"),
            SigRec::with_config(cfg).recover_cold(code),
        ));
        let warm = SigRec::with_config(cfg);
        out.push((format!("recover-first[{tag}]"), warm.recover(code)));
        out.push((format!("recover-warm[{tag}]"), warm.recover(code)));
        let batch = recover_batch(&SigRec::with_config(cfg), &[code.to_vec()], 2);
        out.push((
            format!("batch-dedup[{tag}]"),
            batch.items[0].functions.as_ref().clone(),
        ));
        let naive = recover_batch_naive(&SigRec::with_config(cfg), &[code.to_vec()], 2);
        out.push((
            format!("batch-naive[{tag}]"),
            naive.items[0].functions.as_ref().clone(),
        ));
    }
    // Persistent-store pair: the disk tier sits beneath the engine
    // sweep, so one round trip under `base`'s own knobs suffices. The
    // warm-restart path proves a record written by the cold path decodes
    // to the byte-identical structural digest in a fresh "process"
    // (fresh in-memory cache over the reopened store).
    let dir = persist_scratch();
    {
        let store = PersistentStore::open(&dir).expect("open scratch store");
        let sigrec = SigRec::with_config(*base).with_cache(RecoveryCache::persistent(store));
        out.push(("persist-cold".to_string(), sigrec.recover(code)));
        sigrec.flush_store().expect("flush scratch store");
    }
    {
        let store = PersistentStore::open(&dir).expect("reopen scratch store");
        let sigrec = SigRec::with_config(*base).with_cache(RecoveryCache::persistent(store));
        out.push(("persist-warm-restart".to_string(), sigrec.recover(code)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Number of comparisons [`find_mismatch`] performs per case: five paths
/// under two execution engines, plus the persistent-store
/// cold/warm-restart pair, plus one cold recovery under the *other*
/// inference engine, plus the cross-variant metamorphic relation.
pub const PATHS_PER_CASE: usize = 14;

/// The other inference engine — the one a case's cross-engine path runs.
fn other_engine(engine: InferEngine) -> InferEngine {
    match engine {
        InferEngine::Tree => InferEngine::PerRule,
        InferEngine::PerRule => InferEngine::Tree,
    }
}

/// Checks one `(source, transform)` case under `engine` without
/// shrinking; returns the violated `(path, detail)` if any.
pub fn find_mismatch(
    source: &SourceContract,
    transform: &Transform,
    engine: InferEngine,
) -> Option<(String, String)> {
    let base = TaseConfig {
        infer_engine: engine,
        ..TaseConfig::default()
    };
    find_mismatch_with(source, transform, &base)
}

/// Like [`find_mismatch`] but under an explicit base configuration: every
/// checked path inherits all of `base`'s budget and feature knobs, with
/// only `exec_engine`/`infer_engine` swept. This is what the
/// oracle meta-tests use to prove the harness *would* catch a divergence
/// (e.g. the hidden `disagree_on_selector` fault-injection knob).
pub fn find_mismatch_with(
    source: &SourceContract,
    transform: &Transform,
    base: &TaseConfig,
) -> Option<(String, String)> {
    let code = source.compile_variant(transform);
    let reference = SigRec::with_config(*base).recover_cold(&code);
    let reference_digest = path_digest(&reference);
    for (name, recovered) in execution_paths(base, &code) {
        if let Some(detail) = diff(&reference_digest, &path_digest(&recovered)) {
            return Some((name, detail));
        }
    }
    // Cross-engine relation: the other rule matcher must recover the
    // byte-identical structural digest — parameters, language, and the
    // fired-rule list in application order.
    let other = other_engine(base.infer_engine);
    let cross = SigRec::with_config(TaseConfig {
        infer_engine: other,
        ..*base
    })
    .recover_cold(&code);
    if let Some(detail) = diff(&reference_digest, &path_digest(&cross)) {
        return Some((format!("infer-cross[{other:?}]"), detail));
    }
    // Metamorphic relation: the signature set matches the identity
    // variant's.
    let identity =
        SigRec::with_config(*base).recover_cold(&source.compile_variant(&Transform::Identity));
    diff(&set_digest(&identity), &set_digest(&reference))
        .map(|detail| ("metamorphic-set".to_string(), detail))
}

/// Checks one case under `engine` and, on violation, shrinks the source's
/// function list to a minimal reproducer (recompiling every ddmin
/// candidate, so the reproducer is always well-formed bytecode).
pub fn check_case(
    source: &SourceContract,
    transform: &Transform,
    engine: InferEngine,
) -> CaseOutcome {
    let base = TaseConfig {
        infer_engine: engine,
        ..TaseConfig::default()
    };
    check_case_with(source, transform, &base)
}

/// Like [`check_case`] under an explicit base configuration (see
/// [`find_mismatch_with`]).
pub fn check_case_with(
    source: &SourceContract,
    transform: &Transform,
    base: &TaseConfig,
) -> CaseOutcome {
    let code = source.compile_variant(transform);
    let functions = SigRec::with_config(*base).recover_cold(&code);
    let mismatch = find_mismatch_with(source, transform, base).map(|(path, detail)| {
        let indices: Vec<usize> = (0..source.function_count()).collect();
        let minimal = sigrec_core::shrink::minimize(&indices, |keep| {
            let sub = source.with_function_subset(keep);
            find_mismatch_with(&sub, transform, base).is_some()
        });
        let minimized = (minimal.len() < indices.len()).then(|| {
            let sub = source.with_function_subset(&minimal);
            Minimized {
                source: sub.describe(),
                functions: minimal.len(),
                bytecode_hex: hex(&sub.compile_variant(transform)),
            }
        });
        Mismatch {
            source: source.describe(),
            transform: transform.name().to_string(),
            path,
            detail,
            minimized,
        }
    });
    CaseOutcome {
        functions,
        paths: PATHS_PER_CASE,
        mismatch,
    }
}

/// Number of comparisons one scenario case performs: the full
/// [`PATHS_PER_CASE`] sweep on the deployed bytecode plus the
/// expectation check (linked-vs-direct resolution, forced diagnostic, or
/// empty-and-complete).
pub const SCENARIO_PATHS_PER_CASE: usize = PATHS_PER_CASE + 1;

fn is_unresolved(d: &Diagnostic) -> bool {
    matches!(d, Diagnostic::UnresolvedIndirection { .. })
}

/// Checks a built scenario's ground-truth expectation; returns the
/// failure detail if violated.
fn expectation_detail(bundle: &ScenarioBundle, base: &TaseConfig) -> Option<String> {
    let sigrec = SigRec::with_config(*base);
    match bundle.expectation {
        ScenarioExpectation::ResolvesToImplementation => {
            let implementation = bundle.implementation.as_ref().expect("linkable scenario");
            let linked = sigrec.recover_linked_with_outcome(&bundle.deployed, &bundle.links);
            let direct = SigRec::with_config(*base).recover_cold(implementation);
            if let Some(detail) = diff(&set_digest(&direct), &set_digest(&linked.functions)) {
                return Some(format!("linked != direct: {detail}"));
            }
            linked
                .diagnostics
                .iter()
                .find(|d| is_unresolved(d))
                .map(|d| format!("indirection left unresolved after linking: {d}"))
        }
        ScenarioExpectation::UnresolvedIndirection => {
            let plain = sigrec.recover_with_outcome(&bundle.deployed);
            let linked = sigrec.recover_linked_with_outcome(&bundle.deployed, &bundle.links);
            for (tag, outcome) in [("plain", &plain), ("linked", &linked)] {
                if !outcome.diagnostics.iter().any(is_unresolved) {
                    return Some(format!(
                        "{tag} recovery silently dropped the indirection ({} function(s), {} diagnostic(s))",
                        outcome.functions.len(),
                        outcome.diagnostics.len()
                    ));
                }
            }
            None
        }
        ScenarioExpectation::DirectRecovery => {
            let implementation = bundle.implementation.as_ref().expect("reference scenario");
            let direct = SigRec::with_config(*base).recover_cold(implementation);
            let deployed = sigrec.recover_cold(&bundle.deployed);
            diff(&set_digest(&direct), &set_digest(&deployed))
                .map(|detail| format!("deployed != reference: {detail}"))
        }
        ScenarioExpectation::EmptyComplete => {
            let outcome = sigrec.recover_with_outcome(&bundle.deployed);
            if !outcome.functions.is_empty() {
                return Some(format!(
                    "{} phantom function(s) recovered from a selector-free contract",
                    outcome.functions.len()
                ));
            }
            (!outcome.diagnostics.is_empty())
                .then(|| format!("spurious diagnostics: {:?}", outcome.diagnostics))
        }
    }
}

/// Checks one `(scenario, transform)` case without shrinking: the full
/// per-bytecode path sweep and cross-engine relation on the *deployed*
/// code, the metamorphic set relation against the identity build, and
/// the scenario's ground-truth expectation.
pub fn find_scenario_mismatch(
    scenario: &DispatchScenario,
    transform: &Transform,
    base: &TaseConfig,
) -> Option<(String, String)> {
    let bundle = scenario.build(transform);
    let reference = SigRec::with_config(*base).recover_cold(&bundle.deployed);
    let reference_digest = path_digest(&reference);
    for (name, recovered) in execution_paths(base, &bundle.deployed) {
        if let Some(detail) = diff(&reference_digest, &path_digest(&recovered)) {
            return Some((name, detail));
        }
    }
    let other = other_engine(base.infer_engine);
    let cross = SigRec::with_config(TaseConfig {
        infer_engine: other,
        ..*base
    })
    .recover_cold(&bundle.deployed);
    if let Some(detail) = diff(&reference_digest, &path_digest(&cross)) {
        return Some((format!("infer-cross[{other:?}]"), detail));
    }
    let identity =
        SigRec::with_config(*base).recover_cold(&scenario.build(&Transform::Identity).deployed);
    if let Some(detail) = diff(&set_digest(&identity), &set_digest(&reference)) {
        return Some(("metamorphic-set".to_string(), detail));
    }
    expectation_detail(&bundle, base).map(|detail| ("scenario-expectation".to_string(), detail))
}

/// Checks one scenario case and, on violation, ddmin-shrinks the *inner
/// source's* function list, redeploying the same wrapper around every
/// candidate — the reproducer is always a well-formed deployment, never
/// a byte-level mutation.
pub fn check_scenario_case(
    scenario: &DispatchScenario,
    transform: &Transform,
    base: &TaseConfig,
) -> CaseOutcome {
    let bundle = scenario.build(transform);
    let functions = SigRec::with_config(*base).recover_cold(&bundle.deployed);
    let mismatch = find_scenario_mismatch(scenario, transform, base).map(|(path, detail)| {
        let indices: Vec<usize> = (0..scenario.function_count()).collect();
        let minimal = sigrec_core::shrink::minimize(&indices, |keep| {
            let sub = scenario.with_function_subset(keep);
            find_scenario_mismatch(&sub, transform, base).is_some()
        });
        let minimized = (minimal.len() < indices.len()).then(|| {
            let sub = scenario.with_function_subset(&minimal);
            Minimized {
                source: sub.describe(),
                functions: minimal.len(),
                bytecode_hex: hex(&sub.build(transform).deployed),
            }
        });
        Mismatch {
            source: scenario.describe(),
            transform: transform.name().to_string(),
            path,
            detail,
            minimized,
        }
    });
    CaseOutcome {
        functions,
        paths: SCENARIO_PATHS_PER_CASE,
        mismatch,
    }
}

/// Runs the dispatcher-scenario battery into `report`: every scenario in
/// [`scenario_corpus`] under the identity and one re-emission transform,
/// with per-class coverage recorded for the CI gate.
fn run_scenarios(report: &mut ConformanceReport, base: &TaseConfig) {
    for scenario in scenario_corpus() {
        for transform in [Transform::Identity, Transform::OptimizeToggle] {
            let outcome = check_scenario_case(&scenario, &transform, base);
            report.cases += 1;
            report.paths_checked += outcome.paths;
            for f in &outcome.functions {
                report.rule_hits.absorb(&f.rules);
            }
            *report
                .scenario_class_hits
                .entry(scenario.class.name().to_string())
                .or_insert(0) += 1;
            if let Some(m) = outcome.mismatch {
                report.mismatches.push(m);
            }
        }
    }
}

/// Runs the full harness over `sources`: every applicable transform per
/// source, every execution path per variant, a recovery cache shared
/// across each source's variants (exercising the function-cache soundness
/// gate on perturbed extents), and one whole-corpus batch over all
/// variant bytecodes.
pub fn run(sources: &[SourceContract], opts: &RunOptions) -> ConformanceReport {
    let mut report = ConformanceReport {
        contracts: sources.len(),
        ..ConformanceReport::default()
    };
    let base = TaseConfig {
        infer_engine: opts.infer_engine,
        ..TaseConfig::default()
    };
    let mut corpus_codes: Vec<Vec<u8>> = Vec::new();
    let mut corpus_refs: Vec<Vec<String>> = Vec::new();
    for source in sources {
        // One recoverer whose cache lives across all variants of this
        // source: junk padding and reordering perturb extents and entry
        // pcs while leaving body spans byte-identical, so this drives the
        // function-cache hit path under exactly the conditions its
        // soundness gate exists for.
        let shared = SigRec::with_config(base);
        for transform in standard_transforms(source, opts.seed) {
            let outcome = check_case(source, &transform, opts.infer_engine);
            report.cases += 1;
            report.paths_checked += outcome.paths;
            for f in &outcome.functions {
                report.rule_hits.absorb(&f.rules);
            }
            let reference_digest = path_digest(&outcome.functions);
            if let Some(m) = outcome.mismatch {
                report.mismatches.push(m);
            }
            let code = source.compile_variant(&transform);
            let via_shared = path_digest(&shared.recover(&code));
            report.paths_checked += 1;
            if let Some(detail) = diff(&reference_digest, &via_shared) {
                report.mismatches.push(Mismatch {
                    source: source.describe(),
                    transform: transform.name().to_string(),
                    path: "shared-cache".to_string(),
                    detail,
                    minimized: None,
                });
            }
            corpus_codes.push(code);
            corpus_refs.push(reference_digest);
        }
    }
    // The whole corpus through the dedup scheduler in one call: item
    // order, cross-contract dedup and cache sharing must not change any
    // individual result.
    let batch = recover_batch(
        &SigRec::with_config(base),
        &corpus_codes,
        opts.batch_workers,
    );
    for item in &batch.items {
        report.paths_checked += 1;
        if let Some(detail) = diff(&corpus_refs[item.index], &path_digest(&item.functions)) {
            report.mismatches.push(Mismatch {
                source: format!("corpus case #{}", item.index),
                transform: "corpus-batch".to_string(),
                path: format!("batch-dedup[corpus,{} workers]", opts.batch_workers),
                detail,
                minimized: None,
            });
        }
    }
    // The deployment-shape battery: proxies, forwarders, diamonds,
    // factory children, handler-only contracts, alternate codegen.
    run_scenarios(&mut report, &base);
    report
}

/// Writes `report.to_json()` to `path`.
pub fn write_coverage_json(report: &ConformanceReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrec_corpus::metamorph::conformance_corpus;

    #[test]
    fn identity_case_is_clean_on_first_corpus_source() {
        // Under both inference engines: each run also contains the
        // cross-engine path, so this pins Tree↔PerRule digest equality
        // from either side.
        let source = &conformance_corpus()[0];
        for engine in [InferEngine::Tree, InferEngine::PerRule] {
            let outcome = check_case(source, &Transform::Identity, engine);
            assert!(
                outcome.mismatch.is_none(),
                "{engine:?}: {:?}",
                outcome.mismatch
            );
            assert_eq!(outcome.functions.len(), source.function_count());
        }
    }

    #[test]
    fn digests_are_order_insensitive() {
        let source = &conformance_corpus()[0];
        let mut fns = recover_reference(&source.compile_variant(&Transform::Identity));
        let a = path_digest(&fns);
        fns.reverse();
        assert_eq!(a, path_digest(&fns));
        assert_eq!(set_digest(&fns).len(), fns.len());
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["x".to_string(), "z".to_string()];
        assert!(diff(&a, &a).is_none());
        let d = diff(&a, &b).unwrap();
        assert!(d.contains('y') && d.contains('z'), "{d}");
        let shorter = vec!["x".to_string()];
        assert!(diff(&a, &shorter).unwrap().contains("function(s)"));
    }

    #[test]
    fn targeted_corpus_is_green_and_covers_every_rule() {
        // The full harness over the deterministic corpus (no random
        // extras — those are the binary's and the fuzzer's job).
        let report = run(&conformance_corpus(), &RunOptions::default());
        assert!(report.mismatches.is_empty(), "{}", report.summary());
        assert_eq!(report.uncovered(), vec![], "{}", report.summary());
        assert!(report.is_green());
        let json = report.to_json();
        assert!(json.contains("\"green\": true"));
        assert!(json.contains("\"uncovered\": []"));
    }

    /// The block-compiled engine must be observationally identical to the
    /// per-instruction reference — signatures *and* diagnostics — on the
    /// targeted conformance corpus and on adversarial bytecode, under
    /// tight deterministic budgets.
    #[test]
    fn engines_agree_on_conformance_and_adversarial_corpora() {
        use sigrec_corpus::adversarial::adversarial_cases;
        let tight = TaseConfig {
            max_paths: 64,
            max_steps_per_path: 5_000,
            max_total_steps: 20_000,
            ..TaseConfig::default()
        };
        let mut codes: Vec<Vec<u8>> = conformance_corpus()
            .iter()
            .map(|s| s.compile_variant(&Transform::Identity))
            .collect();
        codes.extend(
            adversarial_cases(0xad5e_c0de, 14)
                .into_iter()
                .map(|c| c.code),
        );
        for code in &codes {
            let block = SigRec::with_config(TaseConfig {
                exec_engine: ExecEngine::Block,
                ..tight
            })
            .recover_cold_with_outcome(code);
            let instr = SigRec::with_config(TaseConfig {
                exec_engine: ExecEngine::Instr,
                ..tight
            })
            .recover_cold_with_outcome(code);
            assert_eq!(
                path_digest(&block.functions),
                path_digest(&instr.functions),
                "signatures diverge"
            );
            assert_eq!(block.diagnostics, instr.diagnostics, "diagnostics diverge");
            // Same bar for the inference engines: under tight budgets the
            // facts are truncated, and the tree matcher must still emit
            // the identical digest (rule lists included) and diagnostics.
            let tree = SigRec::with_config(TaseConfig {
                infer_engine: InferEngine::Tree,
                ..tight
            })
            .recover_cold_with_outcome(code);
            let per_rule = SigRec::with_config(TaseConfig {
                infer_engine: InferEngine::PerRule,
                ..tight
            })
            .recover_cold_with_outcome(code);
            assert_eq!(
                path_digest(&tree.functions),
                path_digest(&per_rule.functions),
                "inference engines diverge"
            );
            assert_eq!(
                tree.diagnostics, per_rule.diagnostics,
                "inference engines diverge on diagnostics"
            );
        }
    }

    #[test]
    fn report_json_is_structurally_sound() {
        let report = ConformanceReport::default();
        let json = report.to_json();
        assert!(json.contains("\"rules_total\": 31"));
        assert!(json.contains("\"scenario_classes_total\": 7"));
        assert!(json.contains("\"minimal-proxy\": 0"));
        assert!(json.contains("\"green\": false")); // nothing covered yet
        assert_eq!(report.uncovered_scenarios().len(), 7);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn scenario_battery_is_green_across_every_class() {
        let base = TaseConfig::default();
        for scenario in scenario_corpus() {
            for transform in [Transform::Identity, Transform::OptimizeToggle] {
                let outcome = check_scenario_case(&scenario, &transform, &base);
                assert!(
                    outcome.mismatch.is_none(),
                    "{} under {}: {:?}",
                    scenario.describe(),
                    transform.name(),
                    outcome.mismatch
                );
            }
        }
    }

    /// Oracle meta-test: plant the hidden fault-injection knob
    /// (`TaseConfig::disagree_on_selector` appends a phantom parameter
    /// under `ExecEngine::Instr` only) and prove the 14-path
    /// differential oracle actually catches an engine disagreement and
    /// ddmin shrinks it to a tiny reproducer. Guards against the harness
    /// degenerating into comparing a path with itself.
    #[test]
    fn planted_disagreement_is_caught_and_shrunk() {
        let source = &conformance_corpus()[0];
        let victim = source.declared()[3].selector;
        let base = TaseConfig {
            disagree_on_selector: Some(victim.as_u32()),
            ..TaseConfig::default()
        };
        let outcome = check_case_with(source, &Transform::Identity, &base);
        let m = outcome
            .mismatch
            .expect("the oracle must catch the planted disagreement");
        assert!(
            m.path.contains("instr"),
            "disagreement fires only under ExecEngine::Instr, caught on {}",
            m.path
        );
        assert!(m.detail.contains("bool"), "{}", m.detail);
        let min = m.minimized.expect("ddmin must produce a reproducer");
        assert!(min.functions <= 2, "shrunk to {} functions", min.functions);
        // Sanity: without the knob the identical case is clean.
        assert!(
            check_case_with(source, &Transform::Identity, &TaseConfig::default())
                .mismatch
                .is_none()
        );
    }
}
