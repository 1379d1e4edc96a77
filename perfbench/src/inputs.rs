//! Workload inputs, generated from the run seed, with their labels.
//!
//! Every label comes from the generator — the declared signature of a
//! compiled function, or the selectors an adversarial generator wrote —
//! never from a recovery. The program under test receives only the bytes.

use crate::util::mix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigrec_abi::{AbiType, FunctionSignature, Selector};
use sigrec_corpus::adversarial::{generate, AdversarialKind};
use sigrec_corpus::datasets::{dataset3, struct_nested_corpus, vyper_corpus};
use sigrec_corpus::metamorph::Transform;
use sigrec_corpus::scenario::{scenario_corpus, ScenarioBundle};
use sigrec_corpus::LabeledContract;
use sigrec_solc::{CompilerConfig, FunctionSpec, Visibility};
use std::collections::HashSet;

/// What a recovery of a case must show besides its selector set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Compiled code: every function fully explored, no diagnostic.
    Compiled,
    /// A 1 000-entry linear dispatcher whose bodies are `JUMPDEST STOP`.
    GiantDispatcher,
    /// A budget-burning loop: its one function must report a budget cut.
    DeepLoop,
}

/// One generated contract.
pub struct Case {
    pub code: Vec<u8>,
    /// Selector and, when the generator declared one, the parameter list.
    pub labels: Vec<(Selector, Option<Vec<AbiType>>)>,
    pub shape: Shape,
    /// Short family name for reports.
    pub family: &'static str,
}

impl Case {
    fn compiled(c: LabeledContract, family: &'static str) -> Case {
        Case {
            labels: c
                .functions
                .iter()
                .map(|f| (f.declared.selector, Some(f.declared.params.clone())))
                .collect(),
            code: c.code,
            shape: Shape::Compiled,
            family,
        }
    }
}

/// Drops byte-identical repeats (first occurrence wins).
fn distinct(cases: Vec<Case>) -> Vec<Case> {
    let mut seen = HashSet::new();
    cases
        .into_iter()
        .filter(|c| seen.insert(c.code.clone()))
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Solidity contracts of dataset 3 in the `fresh` pool.
pub const FRESH_SOLIDITY: usize = 7_000;
/// Vyper contracts in the `fresh` pool.
pub const FRESH_VYPER: usize = 1_000;

/// `fresh`: byte-distinct dataset-3 Solidity plus a Vyper share, shuffled.
pub fn fresh(seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = dataset3(FRESH_SOLIDITY, mix(seed, 1))
        .contracts
        .into_iter()
        .map(|c| Case::compiled(c, "dataset3"))
        .collect();
    cases.extend(
        vyper_corpus(FRESH_VYPER, mix(seed, 2))
            .contracts
            .into_iter()
            .map(|c| Case::compiled(c, "vyper")),
    );
    let mut cases = distinct(cases);
    shuffle(&mut cases, &mut StdRng::seed_from_u64(mix(seed, 3)));
    cases
}

/// `heavy` mix: giant dispatchers, deep loops, Fig. 18 arrays, structs.
pub const HEAVY_GIANTS: usize = 40;
pub const HEAVY_DEEP_LOOPS: usize = 60;
pub const HEAVY_ARRAYS: usize = 208;
pub const HEAVY_STRUCT_FUNCTIONS: usize = 4_800;

/// Element types the Fig. 18 arrays nest.
const ARRAY_ELEMENTS: [AbiType; 4] = [
    AbiType::Uint(256),
    AbiType::Address,
    AbiType::FixedBytes(32),
    AbiType::Int(256),
];

/// `heavy`: a few hundred costly contracts, each byte-distinct.
pub fn heavy(seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    for i in 0..HEAVY_GIANTS {
        let s = mix(seed, 100 + i as u64);
        // `mix(s, 0)` is splitmix64 of `s`, the adversarial generators'
        // selector derivation.
        let base = mix(s, 0) as u32;
        cases.push(Case {
            code: generate(AdversarialKind::GiantDispatcher, s),
            labels: (0..1_000u32)
                .map(|k| (Selector((base ^ k).to_be_bytes()), None))
                .collect(),
            shape: Shape::GiantDispatcher,
            family: "giant-dispatcher",
        });
    }
    for i in 0..HEAVY_DEEP_LOOPS {
        let s = mix(seed, 200 + i as u64);
        cases.push(Case {
            code: generate(AdversarialKind::DeepLoop, s),
            labels: vec![(Selector((mix(s, 0) as u32).to_be_bytes()), None)],
            shape: Shape::DeepLoop,
            family: "deep-loop",
        });
    }
    // Fig. 18, measured cold: one nested dynamic array of dimension
    // 8..=20 per contract, under a seeded name so each is byte-distinct.
    let mut rng = StdRng::seed_from_u64(mix(seed, 4));
    for i in 0..HEAVY_ARRAYS {
        let dims = 8 + i % 13;
        let mut ty = ARRAY_ELEMENTS[rng.gen_range(0..ARRAY_ELEMENTS.len())].clone();
        for _ in 0..dims {
            ty = AbiType::DynArray(Box::new(ty));
        }
        let name = format!("probe{}", rng.gen::<u32>());
        let spec = FunctionSpec::new(
            FunctionSignature::from_declaration(&name, vec![ty]),
            Visibility::External,
        );
        cases.push(Case::compiled(
            LabeledContract::solidity(vec![spec], CompilerConfig::default()),
            "nested-array",
        ));
    }
    cases.extend(
        struct_nested_corpus(HEAVY_STRUCT_FUNCTIONS, 0.3, mix(seed, 5))
            .contracts
            .into_iter()
            .map(|c| Case::compiled(c, "struct-nested")),
    );
    let mut cases = distinct(cases);
    shuffle(&mut cases, &mut StdRng::seed_from_u64(mix(seed, 6)));
    cases
}

/// One factory/proxy deployment of the replay stream.
pub struct Burst {
    pub bundle: ScenarioBundle,
    /// The functions the deployment ultimately serves.
    pub declared: Vec<FunctionSignature>,
}

/// Distinct dataset-3 templates behind the replay stream.
pub const REPLAY_TEMPLATES: usize = 2_000;
/// Stream length as a multiple of the template count.
pub const REPLAY_DUPLICATION: usize = 4;

/// `replay`: distinct templates, the Zipfian stream of indices into them,
/// and the scenario-zoo bursts fired at every chunk boundary.
pub struct Replay {
    pub templates: Vec<Case>,
    pub stream: Vec<usize>,
    pub bursts: Vec<Burst>,
}

pub fn replay(seed: u64) -> Replay {
    let templates = distinct(
        dataset3(REPLAY_TEMPLATES, mix(seed, 7))
            .contracts
            .into_iter()
            .map(|c| Case::compiled(c, "dataset3"))
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(mix(seed, 8));
    // Harmonic (Zipf s = 1) weights: a few templates are cloned often.
    let mut cumulative = Vec::with_capacity(templates.len());
    let mut sum = 0.0f64;
    for i in 0..templates.len() {
        sum += 1.0 / (i + 1) as f64;
        cumulative.push(sum);
    }
    let total = templates.len() * REPLAY_DUPLICATION;
    let mut stream: Vec<usize> = (0..templates.len()).collect();
    while stream.len() < total {
        let u = rng.gen::<f64>() * sum;
        stream.push(
            cumulative
                .partition_point(|&c| c < u)
                .min(templates.len() - 1),
        );
    }
    shuffle(&mut stream, &mut rng);
    let bursts = scenario_corpus()
        .iter()
        .map(|s| Burst {
            bundle: s.build(&Transform::Identity),
            declared: s.source.declared(),
        })
        .collect();
    Replay {
        templates,
        stream,
        bursts,
    }
}
