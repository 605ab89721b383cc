use rand::Rng as _;

use crate::{BatchEval, Optimizer, Rng, SearchOutcome, SearchSpace};

/// Simulated annealing on the discrete integer space (§IV-A3: temperature
/// 10, step size 1), with geometric cooling.
///
/// Each proposal depends on the accept/reject of the previous one, so SA
/// is inherently sequential: it degrades to singleton batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Initial temperature.
    pub temperature: f64,
    /// Per-gene mutation step (± up to this many levels).
    pub step: usize,
    /// Multiplicative cooling applied every evaluation.
    pub cooling: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            temperature: 10.0,
            step: 1,
            cooling: 0.999,
        }
    }
}

impl SimulatedAnnealing {
    fn neighbor(&self, genome: &[usize], space: &SearchSpace, rng: &mut Rng) -> Vec<usize> {
        let mut next = genome.to_vec();
        let i = rng.gen_range(0..genome.len());
        let delta = rng.gen_range(1..=self.step) as isize;
        let sign = if rng.gen_bool(0.5) { 1 } else { -1 };
        let v = next[i] as isize + sign * delta;
        next[i] = v.clamp(0, space.cardinality(i) as isize - 1) as usize;
        next
    }
}

impl Optimizer for SimulatedAnnealing {
    fn run_batch(
        &self,
        space: &SearchSpace,
        budget: usize,
        eval: &mut dyn BatchEval<usize>,
        rng: &mut Rng,
    ) -> SearchOutcome {
        let mut eval1 = |g: &Vec<usize>| {
            eval.eval_batch(std::slice::from_ref(g))
                .pop()
                .expect("one genome in, one cost out")
        };
        let mut outcome = SearchOutcome::new();
        let mut current = space.sample(rng);
        let mut current_cost = eval1(&current);
        outcome.record(&current, current_cost);
        let mut temp = self.temperature;
        for _ in 1..budget {
            let cand = self.neighbor(&current, space, rng);
            let cand_cost = eval1(&cand);
            outcome.record(&cand, cand_cost);
            let accept = match (current_cost, cand_cost) {
                // Infeasible -> feasible is always an improvement.
                (None, Some(_)) => true,
                (None, None) => rng.gen_bool(0.5),
                (Some(_), None) => false,
                (Some(c), Some(n)) => {
                    if n <= c {
                        true
                    } else {
                        // Scale-free acceptance: relative worsening.
                        let rel = (n - c) / c.abs().max(1e-12);
                        let p = (-rel / (temp.max(1e-9) * 0.1)).exp();
                        rng.gen_bool(p.clamp(0.0, 1.0))
                    }
                }
            };
            if accept {
                current = cand;
                current_cost = cand_cost;
            }
            temp *= self.cooling;
        }
        outcome
    }

    fn name(&self) -> &'static str {
        "SA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn converges_on_smooth_objective() {
        let space = SearchSpace::uniform(4, 16);
        let mut rng = Rng::seed_from_u64(11);
        let outcome = SimulatedAnnealing::default().run(
            &space,
            2_000,
            |g| Some(g.iter().map(|&v| (v as f64 - 7.0).powi(2)).sum()),
            &mut rng,
        );
        assert!(outcome.best_cost().unwrap() <= 2.0);
    }

    #[test]
    fn neighbors_stay_in_bounds() {
        let space = SearchSpace::uniform(2, 3);
        let sa = SimulatedAnnealing {
            step: 5,
            ..SimulatedAnnealing::default()
        };
        let mut rng = Rng::seed_from_u64(12);
        let g = vec![0, 2];
        for _ in 0..100 {
            let n = sa.neighbor(&g, &space, &mut rng);
            assert!(space.contains(&n), "{n:?}");
        }
    }

    #[test]
    fn escapes_infeasible_start() {
        // Feasible region is a single point; SA must be able to walk there.
        let space = SearchSpace::uniform(1, 8);
        let mut rng = Rng::seed_from_u64(13);
        let outcome = SimulatedAnnealing::default().run(
            &space,
            500,
            |g| if g[0] == 3 { Some(1.0) } else { None },
            &mut rng,
        );
        assert_eq!(outcome.best_cost(), Some(1.0));
    }
}
