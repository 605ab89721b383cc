use rand::Rng as _;
use serde::{Deserialize, Serialize};

use crate::{BatchEval, Rng, SerialEval};

/// The fine-grained integer space the second-stage GA explores: gene `i`
/// takes any integer in `lo[i]..=hi[i]` (actual PE counts and tile sizes,
/// not the coarse 12-level grid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FineSpace {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl FineSpace {
    /// Creates a fine space from per-gene inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are empty, mismatched, or inverted.
    pub fn new(lo: Vec<i64>, hi: Vec<i64>) -> Self {
        assert!(!lo.is_empty() && lo.len() == hi.len(), "bad bounds");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "lo must not exceed hi"
        );
        FineSpace { lo, hi }
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether the space has no genes (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Clamps a genome into bounds.
    pub fn clamp(&self, genome: &mut [i64]) {
        for ((g, &l), &h) in genome.iter_mut().zip(&self.lo).zip(&self.hi) {
            *g = (*g).clamp(l, h);
        }
    }

    /// True if `genome` lies inside the bounds.
    pub fn contains(&self, genome: &[i64]) -> bool {
        genome.len() == self.len()
            && genome
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(g, (l, h))| l <= g && g <= h)
    }
}

/// Configuration of the paper's local fine-tuning GA (§III-G, §IV-E:
/// 20 individuals, local crossover rate 0.2, local mutation rate 0.05,
/// mutation step 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalGaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Per-gene local-mutation probability.
    pub mutation_rate: f64,
    /// Maximum ± step of a local mutation.
    pub mutation_step: i64,
    /// Per-individual local (self-)crossover probability.
    pub crossover_rate: f64,
    /// Genes per layer (2 for PE/buffer, 3 with the dataflow gene);
    /// self-crossover swaps whole layer groups.
    pub genes_per_layer: usize,
    /// Elite individuals preserved each generation.
    pub elites: usize,
}

impl Default for LocalGaConfig {
    fn default() -> Self {
        LocalGaConfig {
            population: 20,
            mutation_rate: 0.05,
            mutation_step: 4,
            crossover_rate: 0.2,
            genes_per_layer: 2,
            elites: 2,
        }
    }
}

/// The specialized second-stage genetic algorithm: seeded with the RL
/// stage's solution, it only applies *local* mutation (± a small step on a
/// gene) and *local self-crossover* (swapping the gene groups of two layers
/// within one parent), preserving the learnt budget split across layers
/// (§III-G explains why generic crossover breaks feasibility).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalGa {
    config: LocalGaConfig,
}

#[derive(Debug, Clone)]
struct Individual {
    genome: Vec<i64>,
    cost: Option<f64>,
    /// What the evaluator returned beside the cost (see
    /// [`BatchEval::eval_children`]); handed back with the genome when the
    /// individual breeds. Derived state: never serialized.
    terms: Vec<f64>,
}

impl LocalGa {
    /// Creates the fine-tuner.
    pub fn new(config: LocalGaConfig) -> Self {
        assert!(config.population >= 2, "population must be >= 2");
        assert!(config.genes_per_layer >= 1);
        LocalGa { config }
    }

    /// Runs the fine-tuning search from `init` for `budget` evaluations.
    ///
    /// `eval` returns `Some(cost)` for feasible genomes. The initial genome
    /// is evaluated first, so a feasible seed guarantees a feasible result
    /// at least as good as the seed.
    pub fn run(
        &self,
        space: &FineSpace,
        init: &[i64],
        budget: usize,
        eval: impl FnMut(&[i64]) -> Option<f64>,
        rng: &mut Rng,
    ) -> FineOutcome {
        self.run_batch(space, init, budget, &mut SerialEval(eval), rng)
    }

    /// [`Self::run`] with a batched evaluator. Like the generic GA,
    /// parents come only from the previous generation, so each generation
    /// of children goes to [`BatchEval::eval_children`] in one call, each
    /// child with its parent and the terms the evaluator returned for
    /// that parent; the seed's jittered initial population is the first
    /// one. Outcomes are bit-identical to the serial path.
    pub fn run_batch(
        &self,
        space: &FineSpace,
        init: &[i64],
        budget: usize,
        eval: &mut dyn BatchEval<i64>,
        rng: &mut Rng,
    ) -> FineOutcome {
        let mut cursor = self.start_batch(space, init, budget, eval, rng);
        while self.step_generation(space, budget, &mut cursor, eval, rng) {}
        cursor.into_outcome()
    }

    /// Evaluates the seed and its jittered initial population, returning a
    /// [`FineCursor`] positioned before the first generation. Stepping the
    /// cursor with [`Self::step_generation`] until it reports no remaining
    /// work reproduces [`Self::run_batch`] bit for bit.
    pub fn start_batch(
        &self,
        space: &FineSpace,
        init: &[i64],
        budget: usize,
        eval: &mut dyn BatchEval<i64>,
        rng: &mut Rng,
    ) -> FineCursor {
        assert_eq!(init.len(), space.len(), "seed width mismatch");
        let cfg = &self.config;
        let mut outcome = FineOutcome::new();
        // The seed is its own parent, with no terms: priced in full.
        let seed = init.to_vec();
        let (seed_cost, seed_terms) = eval
            .eval_children(std::slice::from_ref(&seed), &[(init, &[])])
            .pop()
            .expect("one genome in, one cost out");
        outcome.record(init, seed_cost);
        // First population: the seed plus local jitters of it, priced as
        // its children.
        let n_jitters = (cfg.population - 1).min(budget.saturating_sub(outcome.evaluations));
        let jitters: Vec<Vec<i64>> = (0..n_jitters)
            .map(|_| {
                let mut g = init.to_vec();
                self.mutate(&mut g, space, rng);
                g
            })
            .collect();
        let parents = vec![(init, seed_terms.as_slice()); jitters.len()];
        let priced = eval.eval_children(&jitters, &parents);
        let mut population = vec![Individual {
            genome: seed,
            cost: seed_cost,
            terms: seed_terms,
        }];
        for (genome, (cost, terms)) in jitters.into_iter().zip(priced) {
            outcome.record(&genome, cost);
            population.push(Individual {
                genome,
                cost,
                terms,
            });
        }
        FineCursor {
            population,
            outcome,
        }
    }

    /// Runs one generation (sort, elitism, breed, one evaluation batch)
    /// against `cursor`. Returns `true` if a generation was run, `false`
    /// once the evaluation budget is exhausted; the caller may checkpoint
    /// the cursor between calls via [`FineCursor::snapshot`].
    pub fn step_generation(
        &self,
        space: &FineSpace,
        budget: usize,
        cursor: &mut FineCursor,
        eval: &mut dyn BatchEval<i64>,
        rng: &mut Rng,
    ) -> bool {
        if cursor.outcome.evaluations >= budget {
            return false;
        }
        let cfg = &self.config;
        let population = &mut cursor.population;
        let outcome = &mut cursor.outcome;
        // NaN costs rank behind every finite cost, ahead only of
        // infeasible genomes, so one bad evaluation can't panic the sort.
        population.sort_by(|a, b| crate::cost_order(a.cost, b.cost));
        let n_elites = cfg.elites.min(population.len());
        let n_children = cfg
            .population
            .saturating_sub(n_elites)
            .min(budget - outcome.evaluations);
        // Parents are drawn from the better half (valid parents
        // reproduce, §III-G).
        let half = (population.len() / 2).max(1);
        let mut parent_of = Vec::with_capacity(n_children);
        let children: Vec<Vec<i64>> = (0..n_children)
            .map(|_| {
                let parent = rng.gen_range(0..half);
                parent_of.push(parent);
                let mut child = population[parent].genome.clone();
                if rng.gen_bool(cfg.crossover_rate.clamp(0.0, 1.0)) {
                    self.self_crossover(&mut child, rng);
                }
                self.mutate(&mut child, space, rng);
                child
            })
            .collect();
        let parents: Vec<(&[i64], &[f64])> = parent_of
            .iter()
            .map(|&p| {
                (
                    population[p].genome.as_slice(),
                    population[p].terms.as_slice(),
                )
            })
            .collect();
        let priced = eval.eval_children(&children, &parents);
        // The next population: the elites, then the children.
        population.truncate(n_elites);
        for (genome, (cost, terms)) in children.into_iter().zip(priced) {
            outcome.record(&genome, cost);
            population.push(Individual {
                genome,
                cost,
                terms,
            });
        }
        true
    }

    /// Local mutation: each gene moves by at most ± `mutation_step`.
    fn mutate(&self, genome: &mut [i64], space: &FineSpace, rng: &mut Rng) {
        for g in genome.iter_mut() {
            if rng.gen_bool(self.config.mutation_rate.clamp(0.0, 1.0)) {
                let delta = rng.gen_range(-self.config.mutation_step..=self.config.mutation_step);
                *g += delta;
            }
        }
        space.clamp(genome);
    }

    /// Local self-crossover: swap the gene groups of two random layers
    /// within the same genome.
    fn self_crossover(&self, genome: &mut [i64], rng: &mut Rng) {
        let gpl = self.config.genes_per_layer;
        let layers = genome.len() / gpl;
        if layers < 2 {
            return;
        }
        let a = rng.gen_range(0..layers);
        let b = rng.gen_range(0..layers);
        if a == b {
            return;
        }
        for k in 0..gpl {
            genome.swap(a * gpl + k, b * gpl + k);
        }
    }
}

/// Resumable state of a [`LocalGa`] run between generations: the current
/// population and the outcome accumulated so far. Produced by
/// [`LocalGa::start_batch`], advanced by [`LocalGa::step_generation`], and
/// checkpointable via [`FineCursor::snapshot`].
#[derive(Debug, Clone)]
pub struct FineCursor {
    population: Vec<Individual>,
    outcome: FineOutcome,
}

impl FineCursor {
    /// The outcome accumulated so far.
    pub fn outcome(&self) -> &FineOutcome {
        &self.outcome
    }

    /// Consumes the cursor, yielding the final outcome.
    pub fn into_outcome(self) -> FineOutcome {
        self.outcome
    }

    /// The genomes of the current population.
    pub fn genomes(&self) -> impl Iterator<Item = &[i64]> {
        self.population.iter().map(|ind| ind.genome.as_slice())
    }

    /// Prices every individual afresh (as its own parent, with no terms)
    /// to rebuild the evaluator terms that [`FineCursor::snapshot`] leaves
    /// out. Call it on a restored cursor before stepping it, so the next
    /// generation sees the same terms as in the uninterrupted run. Costs
    /// stay as restored.
    pub fn rebuild_terms(&mut self, eval: &mut dyn BatchEval<i64>) {
        let genomes: Vec<Vec<i64>> = self.genomes().map(<[i64]>::to_vec).collect();
        let parents: Vec<(&[i64], &[f64])> =
            genomes.iter().map(|g| (g.as_slice(), &[][..])).collect();
        let priced = eval.eval_children(&genomes, &parents);
        for (ind, (_, terms)) in self.population.iter_mut().zip(priced) {
            ind.terms = terms;
        }
    }

    /// Captures the cursor as a serializable snapshot. Floats are stored
    /// bit-for-bit (as `u64`), so a JSON round trip is exact even for the
    /// `f64::INFINITY` trace sentinel and for NaN costs. The evaluator
    /// terms are derived state and are left out; see
    /// [`FineCursor::rebuild_terms`].
    pub fn snapshot(&self) -> FineCursorState {
        FineCursorState {
            population: self
                .population
                .iter()
                .map(|ind| (ind.genome.clone(), ind.cost.map(f64::to_bits)))
                .collect(),
            outcome: self.outcome.snapshot(),
        }
    }

    /// Rebuilds a cursor from a snapshot taken by [`FineCursor::snapshot`].
    /// The individuals come back without terms; without
    /// [`FineCursor::rebuild_terms`] the next generation is priced in
    /// full, with the same costs.
    pub fn restore(state: &FineCursorState) -> Self {
        FineCursor {
            population: state
                .population
                .iter()
                .map(|(genome, bits)| Individual {
                    genome: genome.clone(),
                    cost: bits.map(f64::from_bits),
                    terms: Vec::new(),
                })
                .collect(),
            outcome: FineOutcome::restore(&state.outcome),
        }
    }
}

/// Serializable form of a [`FineCursor`] (costs bit-encoded as `u64`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FineCursorState {
    population: Vec<(Vec<i64>, Option<u64>)>,
    outcome: FineOutcomeState,
}

/// Outcome of a fine-space search (integer genomes).
#[derive(Debug, Clone, PartialEq)]
pub struct FineOutcome {
    /// Best feasible genome and cost, if any.
    pub best: Option<(Vec<i64>, f64)>,
    /// Best-so-far trace per evaluation.
    pub trace: Vec<f64>,
    /// Evaluations spent.
    pub evaluations: usize,
}

impl FineOutcome {
    fn new() -> Self {
        FineOutcome {
            best: None,
            trace: Vec::new(),
            evaluations: 0,
        }
    }

    fn record(&mut self, genome: &[i64], cost: Option<f64>) {
        self.evaluations += 1;
        if let Some(c) = cost {
            // A NaN cost never becomes `best`.
            if !c.is_nan() && self.best.as_ref().is_none_or(|(_, b)| c < *b) {
                self.best = Some((genome.to_vec(), c));
            }
        }
        self.trace
            .push(self.best.as_ref().map_or(f64::INFINITY, |(_, b)| *b));
    }

    /// Best cost if a feasible genome was found.
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, c)| *c)
    }

    /// Captures the outcome as a serializable, bit-exact snapshot.
    pub fn snapshot(&self) -> FineOutcomeState {
        FineOutcomeState {
            best: self.best.as_ref().map(|(g, c)| (g.clone(), c.to_bits())),
            trace_bits: self.trace.iter().map(|c| c.to_bits()).collect(),
            evaluations: self.evaluations,
        }
    }

    /// Rebuilds an outcome from a snapshot taken by
    /// [`FineOutcome::snapshot`].
    pub fn restore(state: &FineOutcomeState) -> Self {
        FineOutcome {
            best: state
                .best
                .as_ref()
                .map(|(g, bits)| (g.clone(), f64::from_bits(*bits))),
            trace: state
                .trace_bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
            evaluations: state.evaluations,
        }
    }
}

/// Serializable form of a [`FineOutcome`]. The trace (which legitimately
/// contains `f64::INFINITY` before the first feasible point) is stored as
/// raw bits because JSON has no representation for non-finite floats.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FineOutcomeState {
    best: Option<(Vec<i64>, u64)>,
    trace_bits: Vec<u64>,
    evaluations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn never_regresses_below_feasible_seed() {
        let space = FineSpace::new(vec![1; 6], vec![100; 6]);
        let seed = vec![50i64; 6];
        let mut rng = Rng::seed_from_u64(41);
        let ga = LocalGa::new(LocalGaConfig::default());
        let outcome = ga.run(
            &space,
            &seed,
            500,
            |g| Some(g.iter().map(|&v| (v - 40).pow(2) as f64).sum()),
            &mut rng,
        );
        let seed_cost: f64 = seed.iter().map(|&v| (v - 40).pow(2) as f64).sum();
        assert!(outcome.best_cost().unwrap() <= seed_cost);
    }

    #[test]
    fn fine_tunes_toward_nearby_optimum() {
        // Optimum at 40 within step-4 reach of the seed over generations.
        let space = FineSpace::new(vec![1; 4], vec![128; 4]);
        let seed = vec![48i64; 4];
        let mut rng = Rng::seed_from_u64(42);
        let ga = LocalGa::new(LocalGaConfig {
            mutation_rate: 0.5,
            ..LocalGaConfig::default()
        });
        let outcome = ga.run(
            &space,
            &seed,
            2_000,
            |g| Some(g.iter().map(|&v| (v - 40).abs() as f64).sum()),
            &mut rng,
        );
        assert!(outcome.best_cost().unwrap() <= 2.0, "{:?}", outcome.best);
    }

    #[test]
    fn self_crossover_preserves_multiset() {
        let ga = LocalGa::new(LocalGaConfig {
            genes_per_layer: 2,
            ..LocalGaConfig::default()
        });
        let mut rng = Rng::seed_from_u64(43);
        let mut genome = vec![1i64, 2, 3, 4, 5, 6];
        let mut sorted_before = genome.clone();
        sorted_before.sort_unstable();
        for _ in 0..20 {
            ga.self_crossover(&mut genome, &mut rng);
        }
        let mut sorted_after = genome.clone();
        sorted_after.sort_unstable();
        assert_eq!(sorted_before, sorted_after);
        // Pairs stay intact: (1,2), (3,4), (5,6) in some order.
        for pair in genome.chunks(2) {
            assert_eq!(pair[1] - pair[0], 1);
        }
    }

    #[test]
    fn mutation_respects_bounds() {
        let space = FineSpace::new(vec![1, 1], vec![4, 4]);
        let ga = LocalGa::new(LocalGaConfig {
            mutation_rate: 1.0,
            mutation_step: 10,
            ..LocalGaConfig::default()
        });
        let mut rng = Rng::seed_from_u64(44);
        for _ in 0..50 {
            let mut g = vec![2i64, 3];
            ga.mutate(&mut g, &space, &mut rng);
            assert!(space.contains(&g), "{g:?}");
        }
    }

    #[test]
    fn nan_costs_never_panic_and_never_become_best() {
        let space = FineSpace::new(vec![1; 4], vec![100; 4]);
        let seed = vec![50i64; 4];
        let mut rng = Rng::seed_from_u64(46);
        let ga = LocalGa::new(LocalGaConfig {
            mutation_rate: 0.5,
            ..LocalGaConfig::default()
        });
        // Every genome touching an even coordinate reports NaN — including
        // the seed itself, so NaN is also the first cost ever recorded.
        let outcome = ga.run(
            &space,
            &seed,
            400,
            |g| {
                if g.iter().any(|&v| v % 2 == 0) {
                    Some(f64::NAN)
                } else {
                    Some(g.iter().map(|&v| v as f64).sum())
                }
            },
            &mut rng,
        );
        assert_eq!(outcome.evaluations, 400);
        let best = outcome.best_cost().expect("odd-coordinate genomes exist");
        assert!(best.is_finite(), "NaN leaked into best: {best}");
    }

    #[test]
    fn cursor_snapshot_resumes_bit_identically() {
        let space = FineSpace::new(vec![1; 6], vec![100; 6]);
        let seed = vec![50i64; 6];
        let ga = LocalGa::new(LocalGaConfig::default());
        let cost = |g: &[i64]| Some(g.iter().map(|&v| (v - 40).pow(2) as f64).sum());
        let budget = 500;

        let mut rng = Rng::seed_from_u64(47);
        let uninterrupted = ga.run(&space, &seed, budget, cost, &mut rng);

        // Same run, but checkpointed (through JSON) after three generations.
        let mut rng = Rng::seed_from_u64(47);
        let mut eval = SerialEval(cost);
        let mut cursor = ga.start_batch(&space, &seed, budget, &mut eval, &mut rng);
        for _ in 0..3 {
            assert!(ga.step_generation(&space, budget, &mut cursor, &mut eval, &mut rng));
        }
        let json = serde_json::to_string(&cursor.snapshot()).unwrap();
        let rng_state = rng.state();
        drop((cursor, rng));

        let state: FineCursorState = serde_json::from_str(&json).unwrap();
        let mut cursor = FineCursor::restore(&state);
        let mut rng = Rng::from_state(rng_state);
        while ga.step_generation(&space, budget, &mut cursor, &mut eval, &mut rng) {}
        let resumed = cursor.into_outcome();

        assert_eq!(resumed.evaluations, uninterrupted.evaluations);
        assert_eq!(resumed.best, uninterrupted.best);
        let bits = |t: &[f64]| t.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&resumed.trace), bits(&uninterrupted.trace));
    }

    /// The optimum of layer `l`'s two genes is `17 + 20·l`, so the layers
    /// stay distinct and a layer-group swap shows in the genome.
    fn layered_cost(g: &[i64]) -> Option<f64> {
        Some(
            g.iter()
                .enumerate()
                .map(|(i, &v)| (v - 17 - 20 * (i as i64 / 2)).pow(2) as f64)
                .sum(),
        )
    }

    /// Prices with [`layered_cost`] and returns, as a genome's terms, the
    /// genome itself, so every call can check the parents it is handed.
    struct ParentChecker {
        config: LocalGaConfig,
        /// Children priced against a parent's terms.
        bred: usize,
        /// Of those, children that only match their parent after a swap.
        swapped: usize,
    }

    impl ParentChecker {
        /// Whether `child` is within ± `mutation_step` of `parent`, gene by
        /// gene, either as it is (`Some(false)`) or after swapping two
        /// layers' gene groups (`Some(true)`).
        fn bred_from(&self, parent: &[i64], child: &[i64]) -> Option<bool> {
            let step = self.config.mutation_step;
            let near = |p: &[i64]| p.iter().zip(child).all(|(p, c)| (p - c).abs() <= step);
            if near(parent) {
                return Some(false);
            }
            let gpl = self.config.genes_per_layer;
            let layers = parent.len() / gpl;
            let swaps = (0..layers).flat_map(|a| (a + 1..layers).map(move |b| (a, b)));
            swaps
                .map(|(a, b)| {
                    let mut swapped = parent.to_vec();
                    for k in 0..gpl {
                        swapped.swap(a * gpl + k, b * gpl + k);
                    }
                    swapped
                })
                .any(|swapped| near(&swapped))
                .then_some(true)
        }
    }

    impl BatchEval<i64> for ParentChecker {
        fn eval_batch(&mut self, genomes: &[Vec<i64>]) -> Vec<Option<f64>> {
            genomes.iter().map(|g| layered_cost(g)).collect()
        }

        fn eval_children(
            &mut self,
            children: &[Vec<i64>],
            parents: &[(&[i64], &[f64])],
        ) -> Vec<(Option<f64>, Vec<f64>)> {
            assert_eq!(children.len(), parents.len());
            for (child, &(parent, terms)) in children.iter().zip(parents) {
                if terms.is_empty() {
                    // Priced in full: the seed, or a restored individual.
                    assert_eq!(child.as_slice(), parent);
                    continue;
                }
                let decoded: Vec<i64> = terms.iter().map(|&t| t as i64).collect();
                assert_eq!(decoded, parent, "the terms belong to another genome");
                let swapped = self.bred_from(parent, child).unwrap_or_else(|| {
                    panic!("{child:?} is not one swap plus small moves away from {parent:?}")
                });
                self.bred += 1;
                self.swapped += usize::from(swapped);
            }
            children
                .iter()
                .map(|c| (layered_cost(c), c.iter().map(|&g| g as f64).collect()))
                .collect()
        }
    }

    #[test]
    fn children_are_priced_against_their_real_parents() {
        let space = FineSpace::new(vec![1; 8], vec![200; 8]);
        let seed: Vec<i64> = (0..8).map(|i| 20 * (i / 2 + 1)).collect();
        let config = LocalGaConfig::default();
        let ga = LocalGa::new(config.clone());
        let budget = 600;
        let plain = ga.run(
            &space,
            &seed,
            budget,
            layered_cost,
            &mut Rng::seed_from_u64(48),
        );

        // Many generations: each sorts the population and keeps elites.
        let mut checker = ParentChecker {
            config: config.clone(),
            bred: 0,
            swapped: 0,
        };
        let checked = ga.run_batch(
            &space,
            &seed,
            budget,
            &mut checker,
            &mut Rng::seed_from_u64(48),
        );
        assert_eq!(checked, plain);
        assert_eq!(
            checker.bred,
            budget - 1,
            "every child but the seed has a parent"
        );
        assert!(checker.swapped > 0, "no self-crossover was checked");

        // Snapshot, restore and rebuild the terms between generations.
        let mut checker = ParentChecker {
            config,
            bred: 0,
            swapped: 0,
        };
        let mut rng = Rng::seed_from_u64(48);
        let mut cursor = ga.start_batch(&space, &seed, budget, &mut checker, &mut rng);
        for _ in 0..5 {
            assert!(ga.step_generation(&space, budget, &mut cursor, &mut checker, &mut rng));
        }
        let mut cursor = FineCursor::restore(&cursor.snapshot());
        cursor.rebuild_terms(&mut checker);
        while ga.step_generation(&space, budget, &mut cursor, &mut checker, &mut rng) {}
        assert_eq!(cursor.into_outcome(), plain);
        assert_eq!(checker.bred, budget - 1);
    }

    #[test]
    fn infeasible_seed_can_still_find_feasible_points() {
        let space = FineSpace::new(vec![0], vec![20]);
        let mut rng = Rng::seed_from_u64(45);
        let ga = LocalGa::new(LocalGaConfig {
            mutation_rate: 1.0,
            ..LocalGaConfig::default()
        });
        // Feasible only at <= 6; seed at 10 is infeasible.
        let outcome = ga.run(
            &space,
            &[10],
            300,
            |g| if g[0] <= 6 { Some(g[0] as f64) } else { None },
            &mut rng,
        );
        assert!(outcome.best_cost().is_some());
    }
}
