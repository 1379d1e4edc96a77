//! Differential fuzzing of the recovery pipeline itself.
//!
//! Where the campaign fuzzer (the crate root) measures how recovered
//! signatures help fuzz *contracts*, this module fuzzes *SigRec*: each
//! iteration draws a random source contract, picks a random
//! behaviour-preserving transform, and hands the pair to the conformance
//! oracle — every execution path must agree with the reference recovery,
//! and the variant's signature set must match the identity emission's.
//! On top of the oracle (which runs under the tree inference engine and
//! already cross-checks one cold per-rule recovery), every case re-runs
//! all twelve execution paths under [`InferEngine::PerRule`] and compares
//! them *path for path* against the tree engine's — same path name, same
//! structural digest. Any disagreement comes back already shrunk to a
//! minimal reproducer (oracle violations) or as a named path mismatch
//! (engine divergences).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigrec_conformance::{check_case, execution_paths, path_digest, Mismatch};
use sigrec_core::{InferEngine, RuleStats, TaseConfig};
use sigrec_corpus::metamorph::{random_sources, standard_transforms, SourceContract, Transform};

/// Parameters for a differential campaign.
#[derive(Clone, Copy, Debug)]
pub struct DifferentialCampaign {
    /// `(source, transform)` cases to run.
    pub iterations: usize,
    /// RNG seed — campaigns are fully deterministic per seed.
    pub seed: u64,
}

impl Default for DifferentialCampaign {
    fn default() -> Self {
        DifferentialCampaign {
            iterations: 32,
            seed: 7,
        }
    }
}

/// Aggregate results of a differential campaign.
#[derive(Clone, Debug, Default)]
pub struct DifferentialReport {
    /// Cases executed.
    pub cases: usize,
    /// Execution-path comparisons performed.
    pub paths: usize,
    /// Rules fired across every reference recovery.
    pub rule_hits: RuleStats,
    /// Violations found (shrunk).
    pub mismatches: Vec<Mismatch>,
}

/// Runs `campaign.iterations` random differential cases.
pub fn run_differential(campaign: &DifferentialCampaign) -> DifferentialReport {
    let mut rng = StdRng::seed_from_u64(campaign.seed);
    let mut report = DifferentialReport::default();
    let sources = random_sources(&mut rng, campaign.iterations);
    for source in &sources {
        let transforms = standard_transforms(source, rng.gen());
        let transform = &transforms[rng.gen_range(0..transforms.len())];
        let outcome = check_case(source, transform, InferEngine::Tree);
        report.cases += 1;
        report.paths += outcome.paths;
        for f in &outcome.functions {
            report.rule_hits.absorb(&f.rules);
        }
        if let Some(m) = outcome.mismatch {
            report.mismatches.push(m);
        }
        compare_engines_pathwise(source, transform, &mut report);
    }
    report
}

/// Runs every execution path once per inference engine and diffs the
/// pairs path-for-path. The conformance oracle's cross-engine relation
/// only covers one cold recovery; this covers warm, cached, and batch
/// paths under both engines too.
fn compare_engines_pathwise(
    source: &SourceContract,
    transform: &Transform,
    report: &mut DifferentialReport,
) {
    let code = source.compile_variant(transform);
    let tree_cfg = TaseConfig {
        infer_engine: InferEngine::Tree,
        ..TaseConfig::default()
    };
    let per_cfg = TaseConfig {
        infer_engine: InferEngine::PerRule,
        ..TaseConfig::default()
    };
    let tree_paths = execution_paths(&tree_cfg, &code);
    let per_paths = execution_paths(&per_cfg, &code);
    debug_assert_eq!(tree_paths.len(), per_paths.len());
    for ((name, tree), (per_name, per)) in tree_paths.into_iter().zip(per_paths) {
        debug_assert_eq!(name, per_name);
        report.paths += 1;
        let (expected, got) = (path_digest(&tree), path_digest(&per));
        if expected != got {
            let detail = expected
                .iter()
                .zip(got.iter())
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("tree `{a}`, per-rule `{b}`"))
                .unwrap_or_else(|| {
                    format!(
                        "tree {} function(s), per-rule {}",
                        expected.len(),
                        got.len()
                    )
                });
            report.mismatches.push(Mismatch {
                source: source.describe(),
                transform: transform.name().to_string(),
                path: format!("infer-engine[{name}]"),
                detail,
                minimized: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean() {
        let report = run_differential(&DifferentialCampaign {
            iterations: 6,
            seed: 11,
        });
        assert_eq!(report.cases, 6);
        assert!(report.paths >= 6);
        assert!(
            report.mismatches.is_empty(),
            "differential fuzzing found: {:?}",
            report.mismatches
        );
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let a = run_differential(&DifferentialCampaign {
            iterations: 4,
            seed: 5,
        });
        let b = run_differential(&DifferentialCampaign {
            iterations: 4,
            seed: 5,
        });
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.rule_hits, b.rule_hits);
    }
}
