//! Evaluation short-circuiting — Algorithm 1 of the paper.
//!
//! Temporal fitness evaluation is incremental: after integrating `i` of
//! `numFitcases` days, the running RMSE is already a usable estimate of the
//! final fitness. Algorithm 1 aborts an evaluation as soon as
//!
//! 1. the intermediate fitness exceeds `bestPrevFull × threshold`, and
//! 2. the extrapolated final fitness still exceeds `bestPrevFull`,
//!
//! returning the extrapolation as a surrogate fitness. `threshold` controls
//! eagerness (Fig. 11 sweeps 0.7 / 1.0 / 1.3: lower = more eager, fewer
//! evaluated time steps, slightly noisier fitness), and `bestPrevFull` is
//! the best fitness seen from *full* evaluations only.
//!
//! Extrapolation methods: the running RMSE is itself the natural
//! extrapolation for a mean-normalised metric ([`Extrapolate::RunningRmse`]);
//! [`Extrapolate::Optimistic`] scales it by `sqrt(done / total)`, assuming
//! zero error on the unseen suffix — a strictly more conservative stopper.

/// How the intermediate fitness is projected to a final fitness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Extrapolate {
    /// The running RMSE as-is (the paper's default behaviour for an
    /// already-normalised metric).
    #[default]
    RunningRmse,
    /// `running × sqrt(done / total)` — assumes a perfect unseen suffix, so
    /// it only stops evaluations that *cannot* beat the baseline.
    Optimistic,
}

impl Extrapolate {
    /// Project the running fitness after `done` of `total` cases.
    pub fn project(&self, running: f64, done: usize, total: usize) -> f64 {
        match self {
            Extrapolate::RunningRmse => running,
            Extrapolate::Optimistic => {
                if total == 0 {
                    running
                } else {
                    running * ((done as f64) / (total as f64)).sqrt()
                }
            }
        }
    }
}

/// What the controller decided at a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EsOutcome {
    /// Keep evaluating.
    Continue,
    /// Stop; use this extrapolated fitness as the surrogate.
    Stop(f64),
}

/// Per-evaluation short-circuit controller (Algorithm 1). Create one per
/// individual evaluation with a snapshot of the population's best
/// fully-evaluated fitness.
#[derive(Debug, Clone, Copy)]
pub struct EsController {
    /// Eagerness threshold (Fig. 11's TH; 1.0 is the reference).
    pub threshold: f64,
    /// Best fitness from prior full evaluations (`bestPrevFull`).
    pub best_prev_full: f64,
    /// Extrapolation method.
    pub extrapolate: Extrapolate,
}

impl EsController {
    /// A controller that never stops (used when ES is disabled).
    pub fn disabled() -> Self {
        EsController {
            threshold: f64::INFINITY,
            best_prev_full: f64::INFINITY,
            extrapolate: Extrapolate::RunningRmse,
        }
    }

    /// Algorithm 1, lines 6–9: decide at a checkpoint.
    pub fn check(&self, running: f64, done: usize, total: usize) -> EsOutcome {
        if self.best_prev_full.is_finite() && running > self.best_prev_full * self.threshold {
            let est = self.extrapolate.project(running, done, total);
            if est > self.best_prev_full {
                return EsOutcome::Stop(est);
            }
        }
        EsOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_controller_never_stops() {
        let c = EsController::disabled();
        assert_eq!(c.check(1e18, 10, 100), EsOutcome::Continue);
    }

    #[test]
    fn stops_when_clearly_worse() {
        let c = EsController {
            threshold: 1.0,
            best_prev_full: 10.0,
            extrapolate: Extrapolate::RunningRmse,
        };
        assert_eq!(c.check(15.0, 50, 100), EsOutcome::Stop(15.0));
    }

    #[test]
    fn continues_when_still_promising() {
        let c = EsController {
            threshold: 1.0,
            best_prev_full: 10.0,
            extrapolate: Extrapolate::RunningRmse,
        };
        assert_eq!(c.check(9.0, 50, 100), EsOutcome::Continue);
    }

    #[test]
    fn threshold_controls_eagerness() {
        let eager = EsController {
            threshold: 0.7,
            best_prev_full: 10.0,
            extrapolate: Extrapolate::RunningRmse,
        };
        let lazy = EsController {
            threshold: 1.3,
            ..eager
        };
        // Running RMSE 11: above best (10) but below 10*1.3.
        assert_eq!(eager.check(11.0, 10, 100), EsOutcome::Stop(11.0));
        assert_eq!(lazy.check(11.0, 10, 100), EsOutcome::Continue);
        // Running 8 with TH 0.7: 8 > 7 triggers the check, but the estimate
        // (8) does not beat bestPrevFull (10)… it must NOT stop, since est
        // must exceed bestPrevFull to stop.
        assert_eq!(eager.check(8.0, 10, 100), EsOutcome::Continue);
    }

    #[test]
    fn optimistic_extrapolation_is_more_conservative() {
        let opt = EsController {
            threshold: 1.0,
            best_prev_full: 10.0,
            extrapolate: Extrapolate::Optimistic,
        };
        // Running 12 after 25% of cases projects to 6 — keep going.
        assert_eq!(opt.check(12.0, 25, 100), EsOutcome::Continue);
        // Same running fitness at 100% projects to 12 — stop.
        assert_eq!(opt.check(12.0, 100, 100), EsOutcome::Stop(12.0));
    }

    #[test]
    fn no_baseline_means_no_stopping() {
        let c = EsController {
            threshold: 0.7,
            best_prev_full: f64::INFINITY,
            extrapolate: Extrapolate::RunningRmse,
        };
        assert_eq!(c.check(1e9, 1, 100), EsOutcome::Continue);
    }
}
