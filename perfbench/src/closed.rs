//! The closed-loop workloads (`fresh`, `heavy`): `clients` threads each
//! take the next contract only after their previous call returned.
//!
//! A round builds a new `SigRec` (memory-only cache), spawns fresh client
//! threads (fresh thread-local interners and index pools) and runs a cold
//! pass over the whole pool through `recover_with_outcome`, then warm
//! passes over the same pool on the same instance, served from its memory
//! cache. Rounds repeat until the run's time is spent; the first one warms
//! the process up and is checked but not timed.

use crate::check::{check_case, digest, Accuracy};
use crate::inputs::Case;
use crate::util::{best, median, peak_rss_mb, secs, Best, Latency, Report};
use sigrec_core::{RecoveryOutcome, SigRec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `SigRec` constructions timed per round, as one block; the round's
/// set-up time is the block's mean.
pub const SETUP_REPS: usize = 256;

/// Untimed rounds at the start of a run. The first round pays the
/// process's page faults and allocator growth (its cold pass ran up to
/// ~27 % below the run's median on `fresh`), which later rounds reuse.
pub const WARMUP_ROUNDS: usize = 1;

/// Minimum duration of a round's warm phase: warm passes repeat until
/// it is reached, so a small pool still times enough warm work.
pub const WARM_MIN_S: f64 = 0.25;

/// One finished call of a pass: input index, result, call latency (s).
pub type Call<T> = (usize, T, f64);

/// A pass's wall time (s), and each client's state with its calls.
pub type Pass<S, T> = (f64, Vec<(S, Vec<Call<T>>)>);

/// Runs `call(i)` for every `i < n` on `clients` closed-loop threads and
/// returns the pass wall time with every call's result and latency.
/// `state` makes one per-thread value (a span recorder, say) that
/// `call` may use and that is returned beside the thread's calls.
pub fn pass<S, T, F>(clients: usize, n: usize, state: impl Fn() -> S + Sync, call: F) -> Pass<S, T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut s = state();
                    let mut calls = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = Instant::now();
                        let out = call(&mut s, i);
                        calls.push((i, out, secs(t)));
                    }
                    (s, calls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread panicked outside a guarded call")
            })
            .collect::<Vec<_>>()
    });
    (secs(start), per_thread)
}

/// A guarded recovery: a panic becomes an error message.
pub fn guarded(f: impl FnOnce() -> RecoveryOutcome) -> Result<RecoveryOutcome, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Times `SETUP_REPS` constructions of a memory-only `SigRec` and
/// returns their mean time with one of the instances.
pub fn timed_setup() -> (f64, SigRec) {
    let mut built = Vec::with_capacity(SETUP_REPS);
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        built.push(black_box(SigRec::new()));
    }
    let mean = secs(t) / SETUP_REPS as f64;
    (mean, built.pop().expect("SETUP_REPS > 0"))
}

/// The untraced closed-loop run: prints every end-to-end metric.
pub fn run(cases: &[Case], clients: usize, seconds: f64, report: &mut Report) {
    let codes: Vec<&[u8]> = cases.iter().map(|c| c.code.as_slice()).collect();
    let n = codes.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setup, mut cold_walls, mut warm_walls) = (vec![], vec![], vec![]);
    let (mut cold_best, mut warm_best) = (Best::new(n), Best::new(n));
    let mut acc: BTreeMap<&str, Accuracy> = BTreeMap::new();
    let mut rounds = 0;
    while rounds <= WARMUP_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        let timed = rounds > WARMUP_ROUNDS;
        let (setup_s, rec) = timed_setup();
        let (wall, cold) = pass(
            clients,
            n,
            || (),
            |_, i| guarded(|| rec.recover_with_outcome(codes[i])),
        );
        if timed {
            setup.push(setup_s);
            cold_walls.push(wall);
        }
        let mut digests = vec![0u64; n];
        for (_, calls) in cold {
            for (i, out, lat) in calls {
                if timed {
                    cold_best.add(i, lat);
                }
                let problem = match &out {
                    Ok(o) => {
                        digests[i] = digest(o);
                        // Accuracy is a property of the seed's inputs;
                        // every round is still checked for correctness.
                        let mut round_acc = Accuracy::default();
                        let p = check_case(&cases[i], o, &mut round_acc);
                        if rounds == 1 {
                            acc.entry(cases[i].family).or_default().add(&round_acc);
                        }
                        p
                    }
                    Err(panic) => Some(format!("{}: panicked: {panic}", cases[i].family)),
                };
                report.check(problem);
            }
        }
        let (mut warm_wall, mut warm_passes) = (0.0, 0);
        while warm_wall < WARM_MIN_S {
            let (wall, warm) = pass(
                clients,
                n,
                || (),
                |_, i| guarded(|| rec.recover_with_outcome(codes[i])),
            );
            warm_wall += wall;
            warm_passes += 1;
            if timed {
                warm_walls.push(wall);
            }
            for (_, calls) in warm {
                for (i, out, lat) in calls {
                    if timed {
                        warm_best.add(i, lat);
                    }
                    // Repeated warm passes serve the same memoised
                    // entries; the first one per round is checked.
                    if warm_passes > 1 {
                        continue;
                    }
                    report.check(match out {
                        Ok(o) if digest(&o) == digests[i] => None,
                        Ok(_) => Some(format!(
                            "{}: warm result differs from cold",
                            cases[i].family
                        )),
                        Err(panic) => Some(format!("{}: warm panicked: {panic}", cases[i].family)),
                    });
                }
            }
        }
    }
    let us: Vec<f64> = cold_best.times().iter().map(|s| s * 1e6).collect();
    let lat = Latency::of(&us);
    report.info(
        "rounds",
        format!("{} timed after {WARMUP_ROUNDS} warm-up", cold_walls.len()),
    );
    report.info("contracts_per_pass", n);
    report.info("warm_passes", warm_walls.len());
    report.info(
        "time_estimate",
        "each contract's best call over the timed rounds (cold) or warm passes; \
         throughput = clients x contracts / sum of best calls; set-up the best round",
    );
    report.info(
        "pass_contracts_per_s_median",
        n as f64 / median(&cold_walls),
    );
    report.info(
        "pass_warm_contracts_per_s_median",
        n as f64 / median(&warm_walls),
    );
    report.info("latency_tail", lat.describe());
    let mut total = Accuracy::default();
    for (family, a) in &acc {
        report.info(
            &format!("accuracy.{family}"),
            format!("{} of {}", a.correct, a.scored),
        );
        total.add(a);
    }
    let per_s = |b: &Best| (clients * n) as f64 / b.sum();
    report.metric("setup_s", best(&setup), "s");
    report.metric("contracts_per_s", per_s(&cold_best), "1/s");
    report.metric("warm_contracts_per_s", per_s(&warm_best), "1/s");
    report.metric("latency_p50_us", lat.p50, "us");
    report.metric("latency_tail_us", lat.tail, "us");
    report.metric("accuracy", total.share(), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
}
