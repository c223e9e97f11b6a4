//! Ready-made [`IterationObserver`]s.
//!
//! Every caller that wants a wall-clock budget used to hand-roll the same
//! closure: check the elapsed time, remember the best fit, return
//! [`IterationControl::Stop`].  [`DeadlineObserver`] packages that pattern —
//! a service attaches one per request and reads back whether the solve was
//! truncated and what fit it had reached when the budget expired.

use crate::solver::{IterationControl, IterationObserver, IterationReport};
use std::time::{Duration, Instant};

/// Stops a solve once a wall-clock budget is spent, keeping the best fit
/// seen so far.
///
/// HOOI improves the fit monotonically and every completed iteration leaves
/// a full, orthonormal factor set, so stopping after iteration `k` returns
/// the exact decomposition a `max_iterations = k` solve would have produced
/// — a *deterministic prefix* of the untruncated trajectory.  Only the
/// number of completed iterations depends on the clock.
///
/// ```
/// use hooi::{DeadlineObserver, PlanOptions, TuckerConfig, TuckerSolver};
/// use sptensor::SparseTensor;
/// use std::time::Duration;
///
/// let tensor = SparseTensor::from_entries(
///     vec![6, 5, 4],
///     &[(vec![0, 1, 2], 1.0), (vec![3, 2, 0], 2.0), (vec![5, 4, 3], 3.0)],
/// );
/// let mut solver = TuckerSolver::plan(&tensor, PlanOptions::new().num_threads(1))?;
/// let mut deadline = DeadlineObserver::after(Duration::from_secs(60));
/// let result = solver.solve_with_observer(
///     &TuckerConfig::new(vec![2, 2, 2]).max_iterations(3),
///     &mut deadline,
/// )?;
/// // A generous budget never truncates; the observer still tracked the fit.
/// assert!(!deadline.stopped_early());
/// assert_eq!(deadline.best_fit(), Some(result.final_fit()));
/// # Ok::<(), hooi::TuckerError>(())
/// ```
#[derive(Debug)]
pub struct DeadlineObserver {
    /// `None` for a budget too large to represent: it never expires.
    deadline: Option<Instant>,
    stopped_early: bool,
    best_fit: Option<f64>,
    iterations_seen: usize,
}

impl DeadlineObserver {
    /// An observer that stops the solve at the first completed iteration
    /// after `budget` of wall-clock time, counted from this call.  A budget
    /// too large to add to the current [`Instant`] (`Duration::MAX`, say)
    /// never expires.
    pub fn after(budget: Duration) -> Self {
        DeadlineObserver::until(Instant::now().checked_add(budget))
    }

    /// An observer that stops the solve at the first completed iteration
    /// after the absolute `deadline` — what a service uses when the budget
    /// is counted from the request's *arrival*, not from the solve start.
    pub fn at(deadline: Instant) -> Self {
        DeadlineObserver::until(Some(deadline))
    }

    fn until(deadline: Option<Instant>) -> Self {
        DeadlineObserver {
            deadline,
            stopped_early: false,
            best_fit: None,
            iterations_seen: 0,
        }
    }

    /// Whether the observer cut the solve short because the deadline
    /// passed.  `false` also while no solve has run yet.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }

    /// The best (= latest, since HOOI is monotone) fit seen so far; `None`
    /// before the first completed iteration.
    pub fn best_fit(&self) -> Option<f64> {
        self.best_fit
    }

    /// Number of completed iterations the observer has seen.
    pub fn iterations_seen(&self) -> usize {
        self.iterations_seen
    }

    /// Resets the flags and fit so the observer can watch another solve
    /// against the same deadline.
    pub fn reset(&mut self) {
        self.stopped_early = false;
        self.best_fit = None;
        self.iterations_seen = 0;
    }
}

impl IterationObserver for DeadlineObserver {
    fn on_iteration(&mut self, report: &IterationReport) -> IterationControl {
        self.iterations_seen = report.iteration;
        let best = self.best_fit.get_or_insert(report.fit);
        if report.fit > *best {
            *best = report.fit;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.stopped_early = true;
            IterationControl::Stop
        } else {
            IterationControl::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuckerConfig;
    use crate::solver::{PlanOptions, TuckerSolver};
    use datagen::random_tensor;

    #[test]
    fn expired_deadline_stops_after_one_iteration() {
        let t = random_tensor(&[15, 15, 15], 600, 4);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![2, 2, 2])
            .max_iterations(50)
            .fit_tolerance(-1.0); // never self-stop
        let mut obs = DeadlineObserver::after(Duration::ZERO);
        let result = solver.solve_with_observer(&config, &mut obs).unwrap();
        // The deadline was already over when the first iteration completed:
        // the solve stops there, with that iteration's full factor set.
        assert_eq!(result.iterations, 1);
        assert!(obs.stopped_early());
        assert_eq!(obs.best_fit(), Some(result.final_fit()));
        assert_eq!(obs.iterations_seen(), 1);
    }

    #[test]
    fn generous_deadline_never_truncates() {
        let t = random_tensor(&[12, 12, 12], 400, 9);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(4);
        let plain = solver.solve(&config).unwrap();
        let mut obs = DeadlineObserver::after(Duration::from_secs(3600));
        let watched = solver.solve_with_observer(&config, &mut obs).unwrap();
        assert!(!obs.stopped_early());
        assert_eq!(watched.fits, plain.fits);
        assert_eq!(watched.factors, plain.factors);
    }

    #[test]
    fn unrepresentable_budget_never_expires() {
        let t = random_tensor(&[12, 12, 12], 400, 9);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![2, 2, 2])
            .max_iterations(4)
            .fit_tolerance(-1.0);
        let plain = solver.solve(&config).unwrap();
        let mut obs = DeadlineObserver::after(Duration::MAX);
        let watched = solver.solve_with_observer(&config, &mut obs).unwrap();
        assert!(!obs.stopped_early());
        assert_eq!(obs.iterations_seen(), 4);
        assert_eq!(watched.fits, plain.fits);
        assert_eq!(watched.factors, plain.factors);
    }

    #[test]
    fn truncated_solve_is_a_prefix_of_the_full_trajectory() {
        let t = random_tensor(&[15, 12, 10], 500, 21);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![3, 3, 3])
            .max_iterations(20)
            .fit_tolerance(-1.0)
            .seed(5);
        let mut obs = DeadlineObserver::after(Duration::ZERO);
        let truncated = solver.solve_with_observer(&config, &mut obs).unwrap();
        assert!(obs.stopped_early());
        // Re-solving with max_iterations pinned to the truncation point must
        // reproduce the truncated result bit for bit.
        let replay = solver
            .solve(&config.clone().max_iterations(truncated.iterations))
            .unwrap();
        assert_eq!(truncated.factors, replay.factors);
        assert_eq!(truncated.core.as_slice(), replay.core.as_slice());
        assert_eq!(truncated.fits, replay.fits);
    }

    #[test]
    fn reset_clears_state_for_reuse() {
        let t = random_tensor(&[10, 10, 10], 200, 2);
        let mut solver = TuckerSolver::plan(&t, PlanOptions::new().num_threads(1)).unwrap();
        let config = TuckerConfig::new(vec![2, 2, 2]).max_iterations(3);
        let mut obs = DeadlineObserver::after(Duration::ZERO);
        solver.solve_with_observer(&config, &mut obs).unwrap();
        assert!(obs.stopped_early());
        obs.reset();
        assert!(!obs.stopped_early());
        assert_eq!(obs.best_fit(), None);
        assert_eq!(obs.iterations_seen(), 0);
    }
}
