//! # opt-methods — classical design-space-exploration baselines
//!
//! The non-RL optimization methods ConfuciuX is compared against (§II-E,
//! §IV-A3): grid search, random search, simulated annealing, a generic
//! genetic algorithm, and Bayesian optimization with a Gaussian-process
//! surrogate — plus the paper's own specialized **local GA** used as the
//! second-stage fine-tuner (§III-G).
//!
//! All methods minimize a black-box objective over a discrete space and
//! are budgeted in *evaluations* so they can be compared head-to-head with
//! the RL agents' epoch budgets.
//!
//! ```
//! use opt_methods::{RandomSearch, SearchSpace, Optimizer};
//! use rand::SeedableRng;
//!
//! let space = SearchSpace::uniform(4, 5); // 4 genes, 5 levels each
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Minimize the sum of levels; optimum is all zeros.
//! let outcome = RandomSearch::default().run(
//!     &space, 200,
//!     |g| Some(g.iter().sum::<usize>() as f64),
//!     &mut rng);
//! assert!(outcome.best.unwrap().1 <= 2.0); // near the all-zero optimum
//! ```

mod anneal;
mod bayesian;
mod genetic;
mod grid;
mod local_ga;
mod outcome;
mod random;
mod space;

pub use anneal::SimulatedAnnealing;
pub use bayesian::BayesianOpt;
pub use genetic::GeneticAlgorithm;
pub use grid::GridSearch;
pub use local_ga::{
    FineCursor, FineCursorState, FineOutcome, FineOutcomeState, FineSpace, LocalGa, LocalGaConfig,
};
pub use outcome::SearchOutcome;
pub use random::RandomSearch;
pub use space::SearchSpace;

/// The RNG type shared by all optimizers.
pub type Rng = rand::rngs::StdRng;

/// Total order on optional candidate costs: finite costs ascend via
/// [`f64::total_cmp`], any NaN cost ranks strictly worse than every finite
/// cost, and `None` (infeasible) ranks worst of all. A NaN leaking out of a
/// cost model demotes that candidate instead of panicking the search the
/// way `partial_cmp(..).expect("finite costs")` used to.
pub fn cost_order(a: Option<f64>, b: Option<f64>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Some(x), Some(y)) => match (x.is_nan(), y.is_nan()) {
            (false, false) => x.total_cmp(&y),
            (false, true) => Ordering::Less,
            (true, false) => Ordering::Greater,
            (true, true) => Ordering::Equal,
        },
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// Cap on how many genomes an optimizer queues up before flushing them to
/// the evaluator: big enough to fill the engine's kernel batches, small
/// enough to bound per-generation memory.
pub const EVAL_BATCH: usize = 256;

/// A batched black-box objective over genomes with gene type `G`.
///
/// Entry `i` of the result answers `genomes[i]`; `None` marks a
/// constraint-violating genome. Implementations backed by a batch
/// evaluation engine (the `EvalEngine` in the `maestro` crate) must return
/// results bit-identical to evaluating each genome alone, in order — the
/// optimizers rely on that to stay deterministic.
///
/// Optimizers that breed children from parents (the [`LocalGa`]) call
/// [`BatchEval::eval_children`] instead, so an objective that sums
/// per-part terms can reprice only the parts a child changed.
pub trait BatchEval<G> {
    /// Evaluates a batch of genomes.
    fn eval_batch(&mut self, genomes: &[Vec<G>]) -> Vec<Option<f64>>;

    /// Evaluates children bred from known parents. `parents[i]` is the
    /// genome `children[i]` was copied from, plus the terms this evaluator
    /// returned for that parent (empty if there are none, which asks for
    /// a full evaluation). Entry `i` of the result is the child's cost and
    /// its own terms, to be handed back when the child becomes a parent.
    ///
    /// Costs must equal [`BatchEval::eval_batch`]'s bit for bit. The
    /// default evaluates the children with it and returns no terms.
    fn eval_children(
        &mut self,
        children: &[Vec<G>],
        parents: &[(&[G], &[f64])],
    ) -> Vec<(Option<f64>, Vec<f64>)> {
        debug_assert_eq!(children.len(), parents.len(), "one parent per child");
        self.eval_batch(children)
            .into_iter()
            .map(|cost| (cost, Vec::new()))
            .collect()
    }
}

/// Adapter running a per-genome closure serially, so every [`Optimizer`]
/// keeps accepting plain closures through [`Optimizer::run`].
pub struct SerialEval<F>(pub F);

impl<G, F: FnMut(&[G]) -> Option<f64>> BatchEval<G> for SerialEval<F> {
    fn eval_batch(&mut self, genomes: &[Vec<G>]) -> Vec<Option<f64>> {
        genomes.iter().map(|g| (self.0)(g)).collect()
    }
}

/// A black-box minimizer over a discrete [`SearchSpace`].
///
/// The evaluator returns `Some(cost)` for feasible genomes and `None` for
/// genomes violating the platform constraint; optimizers must survive long
/// runs of infeasible evaluations (tight-constraint regimes in Table IV).
///
/// [`Optimizer::run_batch`] is the primary entry point: population methods
/// (GA) and enumeration methods (grid, random) hand whole generations to
/// the evaluator so a parallel backend can price them concurrently.
/// Inherently sequential methods (SA, BO) degrade to singleton batches.
/// Both entry points produce bit-identical [`SearchOutcome`]s: genomes are
/// generated in the same RNG order and recorded in submission order, and
/// evaluation itself never consumes randomness.
pub trait Optimizer {
    /// Runs the search for exactly `budget` objective evaluations, handing
    /// the evaluator the largest genome batches the method permits.
    fn run_batch(
        &self,
        space: &SearchSpace,
        budget: usize,
        eval: &mut dyn BatchEval<usize>,
        rng: &mut Rng,
    ) -> SearchOutcome;

    /// Runs the search with a serial per-genome closure.
    fn run(
        &self,
        space: &SearchSpace,
        budget: usize,
        eval: impl FnMut(&[usize]) -> Option<f64>,
        rng: &mut Rng,
    ) -> SearchOutcome
    where
        Self: Sized,
    {
        self.run_batch(space, budget, &mut SerialEval(eval), rng)
    }

    /// Method name as used in the paper's tables.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every baseline must find the optimum of a trivially separable
    /// objective within a modest budget.
    #[test]
    fn all_optimizers_solve_separable_objective() {
        let space = SearchSpace::uniform(3, 6);
        let eval = |g: &[usize]| Some(g.iter().map(|&v| (v as f64 - 2.0).powi(2)).sum::<f64>());
        type Runner<'a> = Box<dyn Fn(&mut Rng) -> SearchOutcome + 'a>;
        let opts: Vec<(Runner, &str)> = vec![
            (
                Box::new(|rng: &mut Rng| RandomSearch.run(&space, 600, eval, rng)),
                "random",
            ),
            (
                Box::new(|rng: &mut Rng| GridSearch::new(1).run(&space, 600, eval, rng)),
                "grid",
            ),
            (
                Box::new(|rng: &mut Rng| SimulatedAnnealing::default().run(&space, 600, eval, rng)),
                "sa",
            ),
            (
                Box::new(|rng: &mut Rng| GeneticAlgorithm::default().run(&space, 600, eval, rng)),
                "ga",
            ),
            (
                Box::new(|rng: &mut Rng| BayesianOpt::default().run(&space, 150, eval, rng)),
                "bo",
            ),
        ];
        for (run, name) in opts {
            let mut rng = Rng::seed_from_u64(123);
            let outcome = run(&mut rng);
            let (genome, cost) = outcome.best.expect(name);
            assert_eq!(cost, 0.0, "{name} reached {cost} at {genome:?}");
        }
    }

    /// With a constraint that rejects most of the space, optimizers must
    /// still report feasible bests (or a well-formed empty outcome).
    #[test]
    fn optimizers_respect_infeasibility() {
        let space = SearchSpace::uniform(2, 10);
        // Feasible only when the sum is under 4.
        let eval = |g: &[usize]| {
            let s: usize = g.iter().sum();
            if s < 4 {
                Some(100.0 - s as f64)
            } else {
                None
            }
        };
        let mut rng = Rng::seed_from_u64(7);
        for outcome in [
            RandomSearch.run(&space, 300, eval, &mut rng),
            SimulatedAnnealing::default().run(&space, 300, eval, &mut rng),
            GeneticAlgorithm::default().run(&space, 300, eval, &mut rng),
        ] {
            if let Some((genome, cost)) = outcome.best {
                assert!(genome.iter().sum::<usize>() < 4);
                assert!(cost <= 100.0);
            }
        }
    }
}
