//! Observability must be off the fitness path: installing the journal and
//! raising span detail to Fine cannot move a single bit of the search.
//!
//! This lives in its own test binary because the contract is about the
//! *process-global* journal: the off-arm must run before `gmr_obsv::init`
//! ever executes in the process, which no test sharing a binary could
//! guarantee. One test function sequences both arms, within one build:
//! the instrumentation is always compiled in, and only the journal's
//! presence differs between them.

use gmr_expr::EvalContext;
use gmr_gp::short_circuit::Extrapolate;
use gmr_gp::{Engine, Evaluator, GpConfig, ParamPriors, Phenotype};
use gmr_tag::grammar::test_fixtures::tiny_grammar;

/// Fit `y = 2x - 1` with a short-circuit checkpoint every 8 cases — the
/// same workload `determinism.rs` pins across thread counts.
struct LineFit {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LineFit {
    fn new() -> Self {
        let xs: Vec<f64> = (0..64).map(|i| i as f64 / 4.0).collect();
        let ys = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        LineFit { xs, ys }
    }
}

impl Evaluator for LineFit {
    fn num_equations(&self) -> usize {
        1
    }
    fn num_cases(&self) -> usize {
        self.xs.len()
    }
    fn evaluate(&self, ph: &Phenotype, ctl: &mut dyn FnMut(f64, usize) -> bool) -> (f64, bool) {
        let eq = &ph.eqs()[0];
        let comp = ph.compiled();
        let mut scratch = comp.map(|sys| sys.scratch());
        let mut out = [0.0f64];
        let mut sse = 0.0;
        for (i, (&x, &y)) in self.xs.iter().zip(&self.ys).enumerate() {
            let state = [x];
            let ctx = EvalContext {
                vars: &[0.0],
                state: &state,
            };
            let p = match (&comp, &mut scratch) {
                (Some(sys), Some(scratch)) => {
                    sys.eval_step(&ctx, scratch, &mut out);
                    out[0]
                }
                _ => eq.eval(&ctx),
            };
            let d = p - y;
            sse += d * d;
            let done = i + 1;
            if done % 8 == 0 && done < self.xs.len() {
                let running = (sse / done as f64).sqrt();
                if !ctl(running, done) {
                    return (running, false);
                }
            }
        }
        ((sse / self.xs.len() as f64).sqrt(), true)
    }
}

/// The matrix both arms run: extrapolation mode × thread count.
const MATRIX: [(Extrapolate, usize); 4] = [
    (Extrapolate::Optimistic, 1),
    (Extrapolate::Optimistic, 4),
    (Extrapolate::RunningRmse, 1),
    (Extrapolate::RunningRmse, 4),
];

/// Run once and return the (best, mean) trajectory as raw bits.
fn trajectory(extrapolate: Extrapolate, threads: usize) -> Vec<(u64, u64)> {
    let (g, _) = tiny_grammar();
    let problem = LineFit::new();
    let priors = ParamPriors::new([(2.0, 0.0, 4.0), (0.5, 0.0, 1.0)]);
    let cfg = GpConfig {
        pop_size: 32,
        max_gen: 10,
        min_size: 2,
        max_size: 10,
        local_search_steps: 2,
        es_threshold: Some(1.1),
        extrapolate,
        threads,
        seed: 45,
        ..GpConfig::default()
    };
    let report = Engine::new(&g, &problem, priors, cfg).run();
    report
        .history
        .iter()
        .map(|s| (s.best.to_bits(), s.mean.to_bits()))
        .collect()
}

#[test]
fn trajectories_bit_identical_with_observability_on_and_off() {
    // Arm 1: journal uninstalled — every span site is one atomic load.
    assert!(
        gmr_obsv::global().is_none(),
        "the off-arm must run before any init() in this process"
    );
    let off: Vec<Vec<(u64, u64)>> = MATRIX.iter().map(|&(e, t)| trajectory(e, t)).collect();

    // Arm 2: journal recording at the chattiest detail level.
    gmr_obsv::init(gmr_obsv::DEFAULT_CAPACITY);
    gmr_obsv::span::set_detail(gmr_obsv::Detail::Fine);
    let on: Vec<Vec<(u64, u64)>> = MATRIX.iter().map(|&(e, t)| trajectory(e, t)).collect();

    for ((&(e, t), off), on) in MATRIX.iter().zip(&off).zip(&on) {
        assert_eq!(
            off, on,
            "fitness trajectory moved when observability was enabled \
             (extrapolate {e:?}, threads {t})"
        );
    }

    // Arm 2 must actually have recorded — otherwise this test proves
    // nothing.
    assert!(gmr_obsv::enabled(), "init() should install the journal");
    let recs = gmr_obsv::drain();
    assert!(
        recs.iter().any(|r| matches!(
            r.event,
            gmr_obsv::Event::Span {
                name: "gen.evaluate",
                ..
            }
        )),
        "expected gen.evaluate spans in the journal, got {} events",
        recs.len()
    );
    assert!(
        recs.iter()
            .any(|r| matches!(r.event, gmr_obsv::Event::Gen { .. })),
        "expected per-generation events in the journal"
    );
}
