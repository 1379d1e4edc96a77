//! Efficiency experiments: Fig. 17 (per-function recovery time) and
//! Fig. 18 (time vs array dimension).

use crate::accuracy::Scale;
use crate::report::TextTable;
use sigrec_abi::{AbiType, FunctionSignature};
use sigrec_core::SigRec;
use sigrec_corpus::{datasets, evaluate};
use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
use std::time::Duration;

/// Fig. 17: the distribution of per-function recovery time (paper: mean
/// 0.074 s on their corpus; 99.7 % within 1 s; the *shape* — a tight bulk
/// with a thin slow tail — is the reproducible claim).
pub fn fig17(scale: &Scale) -> String {
    let corpus = datasets::dataset3(scale.contracts, scale.seed + 20);
    let eval = evaluate(&SigRec::new(), &corpus);
    let mut times: Vec<Duration> = eval.outcomes.iter().map(|o| o.elapsed).collect();
    times.sort_unstable();
    let total = times.len().max(1);
    let mean: Duration = times.iter().sum::<Duration>() / total as u32;
    let pick = |q: f64| times[((total - 1) as f64 * q) as usize];
    let mut t = TextTable::new(&["statistic", "value"]);
    t.row(&["functions".into(), total.to_string()]);
    t.row(&["mean".into(), format!("{:?}", mean)]);
    t.row(&["p50".into(), format!("{:?}", pick(0.50))]);
    t.row(&["p90".into(), format!("{:?}", pick(0.90))]);
    t.row(&["p99".into(), format!("{:?}", pick(0.99))]);
    t.row(&[
        "max".into(),
        format!("{:?}", *times.last().unwrap_or(&Duration::ZERO)),
    ]);
    let within = |d: Duration| times.iter().filter(|&&x| x <= d).count() as f64 / total as f64;
    t.row(&[
        "within 10×mean".into(),
        crate::report::pct(within(mean * 10)),
    ]);
    format!(
        "Fig. 17 — per-function recovery time (paper: mean 0.074s, 99.7% ≤ 1s on 47M functions)\n{}",
        t.render()
    )
}

/// One data point of Fig. 18.
#[derive(Clone, Copy, Debug)]
pub struct DimensionPoint {
    /// Array dimension.
    pub dimension: usize,
    /// Mean recovery time for a function taking one such array.
    pub time: Duration,
}

/// Measures cold recovery time for a `uint256` nested array of each
/// dimension in `1..=max_dim` (paper: time grows linearly with the
/// dimension). Every repeat is a cache-bypassing [`SigRec::recover_cold`],
/// so the series times TASE and inference, not cache lookups.
pub fn dimension_series(max_dim: usize, repeats: usize) -> Vec<DimensionPoint> {
    let sigrec = SigRec::new();
    (1..=max_dim)
        .map(|d| {
            let mut ty = AbiType::Uint(256);
            for _ in 0..d {
                ty = AbiType::DynArray(Box::new(ty));
            }
            let sig = FunctionSignature::from_declaration("probe", vec![ty]);
            let contract = compile_single(
                FunctionSpec::new(sig, Visibility::External),
                &CompilerConfig::default(),
            );
            // Warm up once, then measure.
            let _ = sigrec.recover_cold(&contract.code);
            let start = std::time::Instant::now();
            for _ in 0..repeats.max(1) {
                let r = sigrec.recover_cold(&contract.code);
                assert_eq!(r.len(), 1);
            }
            DimensionPoint {
                dimension: d,
                time: start.elapsed() / repeats.max(1) as u32,
            }
        })
        .collect()
}

/// Fig. 18: time vs array dimension, with a crude linearity check.
pub fn fig18() -> String {
    let series = dimension_series(20, 20);
    let mut t = TextTable::new(&["dimension", "time"]);
    for p in &series {
        t.row(&[p.dimension.to_string(), format!("{:?}", p.time)]);
    }
    // Shape check: time(20) / time(5) should be roughly 4× for linear
    // growth (allowing generous noise).
    let t5 = series[4].time.as_nanos().max(1) as f64;
    let t20 = series[19].time.as_nanos() as f64;
    let ratio = t20 / t5;
    format!(
        "Fig. 18 — recovery time vs array dimension (paper: linear growth)\n{}\nt(20)/t(5) = {:.1} (≈4 for linear)\n",
        t.render(),
        ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_series_is_monotone_ish() {
        let s = dimension_series(6, 3);
        assert_eq!(s.len(), 6);
        // Deep arrays must cost more than shallow ones (loose check).
        assert!(s[5].time >= s[0].time / 2, "{:?}", s);
    }

    #[test]
    fn fig17_renders() {
        let out = fig17(&Scale {
            contracts: 20,
            per_version: 2,
            seed: 3,
        });
        assert!(out.contains("mean"));
        assert!(out.contains("p99"));
    }
}
