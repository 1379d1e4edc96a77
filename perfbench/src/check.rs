//! Output checks against the generator's labels.

use crate::inputs::{Burst, Case, Shape};
use sigrec_abi::Selector;
use sigrec_core::{Diagnostic, Language, RecoveredFunction, RecoveryOutcome};
use sigrec_corpus::scenario::ScenarioExpectation;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Functions scored against a declared signature, and how many matched.
#[derive(Clone, Copy, Default)]
pub struct Accuracy {
    pub scored: u64,
    pub correct: u64,
}

impl Accuracy {
    pub fn add(&mut self, other: &Accuracy) {
        self.scored += other.scored;
        self.correct += other.correct;
    }

    pub fn share(&self) -> f64 {
        self.correct as f64 / self.scored.max(1) as f64
    }
}

fn selectors(functions: &[RecoveredFunction]) -> Vec<Selector> {
    let mut s: Vec<Selector> = functions.iter().map(|f| f.selector).collect();
    s.sort();
    s
}

/// Checks one recovery of `case`; scores its declared functions into
/// `acc`. Returns what was wrong, if anything.
pub fn check_case(case: &Case, out: &RecoveryOutcome, acc: &mut Accuracy) -> Option<String> {
    if let Some(d) = out
        .diagnostics
        .iter()
        .find(|d| matches!(d, Diagnostic::InternalError { .. }))
    {
        return Some(format!("{}: {d}", case.family));
    }
    let mut want: Vec<Selector> = case.labels.iter().map(|(s, _)| *s).collect();
    want.sort();
    want.dedup();
    if selectors(&out.functions) != want {
        return Some(format!(
            "{}: recovered {} selectors, label has {}",
            case.family,
            out.functions.len(),
            want.len()
        ));
    }
    for (selector, params) in &case.labels {
        let Some(params) = params else { continue };
        acc.scored += 1;
        let got = out.functions.iter().find(|f| f.selector == *selector);
        if got.is_some_and(|f| f.params == *params) {
            acc.correct += 1;
        }
    }
    match case.shape {
        Shape::Compiled => None,
        Shape::GiantDispatcher => out
            .functions
            .iter()
            .any(|f| !f.params.is_empty())
            .then(|| "giant-dispatcher: a JUMPDEST-STOP body got parameters".to_string()),
        Shape::DeepLoop => (!out
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::BudgetExhausted { .. })))
        .then(|| "deep-loop: no budget diagnostic".to_string()),
    }
}

/// Checks a linked recovery of a factory/proxy burst against its
/// scenario's expectation.
pub fn check_burst(burst: &Burst, out: &RecoveryOutcome) -> Option<String> {
    let unresolved = out
        .diagnostics
        .iter()
        .any(|d| matches!(d, Diagnostic::UnresolvedIndirection { .. }));
    let expectation = burst.bundle.expectation;
    let ok = match expectation {
        ScenarioExpectation::ResolvesToImplementation | ScenarioExpectation::DirectRecovery => {
            let mut want: Vec<Selector> = burst.declared.iter().map(|s| s.selector).collect();
            want.sort();
            selectors(&out.functions) == want && !unresolved
        }
        ScenarioExpectation::UnresolvedIndirection => unresolved,
        ScenarioExpectation::EmptyComplete => out.functions.is_empty() && out.is_complete(),
    };
    (!ok).then(|| {
        format!(
            "burst {expectation:?}: {} functions, unresolved indirection: {unresolved}",
            out.functions.len()
        )
    })
}

/// A digest of everything a recovery reports except timings, for
/// comparing the same contract across passes and epochs.
pub fn digest(out: &RecoveryOutcome) -> u64 {
    digest_parts(&out.functions, &out.diagnostics)
}

pub fn digest_parts(functions: &[RecoveredFunction], diagnostics: &[Diagnostic]) -> u64 {
    let mut h = DefaultHasher::new();
    for f in functions {
        f.selector.hash(&mut h);
        f.entry.hash(&mut h);
        f.params.hash(&mut h);
        (f.language == Language::Vyper).hash(&mut h);
        f.rules.hash(&mut h);
        for b in &f.budgets {
            (*b as u8).hash(&mut h);
        }
        if let Some(d) = &f.delegate {
            format!("{d:?}").hash(&mut h);
        }
    }
    for d in diagnostics {
        d.to_string().hash(&mut h);
    }
    h.finish()
}
