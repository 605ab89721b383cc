use tinynn::{
    categorical_entropy, sample_categorical, softmax, softmax_into, Adam, Linear, LstmBatchScratch,
    LstmCache, LstmCell, LstmState, Matrix, Param, Rng,
};

/// Backbone of the policy network: the paper's default is a single
/// LSTM-128 layer; Table IX also evaluates an MLP of the same width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PolicyBackboneKind {
    /// Recurrent backbone (remembers the budget consumed by earlier layers).
    Rnn,
    /// Feed-forward backbone (stateless across time steps).
    Mlp,
}

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum Backbone {
    Rnn(LstmCell),
    Mlp(Linear),
}

/// Per-step record needed to replay/backprop the policy decision.
#[derive(Debug, Clone)]
pub struct PolicyStep {
    obs: Matrix,
    features: Matrix,
    lstm_cache: Option<LstmCache>,
    /// Per-head action probabilities at decision time.
    pub probs: Vec<Vec<f32>>,
    /// Sub-actions sampled at this step.
    pub actions: Vec<usize>,
    /// Sum over heads of `log π(a|s)` at decision time.
    pub log_prob: f32,
}

/// Reusable scratch arena for [`PolicyNet::act_batch`]: stacked
/// observations, the batched recurrent state, and every forward
/// intermediate live here, so the vectorized rollout hot loop stops
/// allocating `Matrix` temporaries every step.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    obs: Matrix,
    prev: LstmState,
    lstm: LstmBatchScratch,
    features: Matrix,
    logits: Matrix,
    probs: Matrix,
}

impl PolicyScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A multi-head stochastic policy: a shared backbone followed by one
/// softmax head per discrete sub-action (PEs, buffers, optionally dataflow).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PolicyNet {
    backbone: Backbone,
    heads: Vec<Linear>,
    hidden: usize,
    obs_dim: usize,
}

impl PolicyNet {
    /// Builds a policy with the given backbone and one head per entry of
    /// `action_dims`, using the paper's hidden width of 128.
    pub fn new(
        obs_dim: usize,
        action_dims: &[usize],
        kind: PolicyBackboneKind,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(!action_dims.is_empty(), "need at least one action head");
        let backbone = match kind {
            PolicyBackboneKind::Rnn => Backbone::Rnn(LstmCell::new(obs_dim, hidden, rng)),
            PolicyBackboneKind::Mlp => Backbone::Mlp(Linear::new(obs_dim, hidden, rng)),
        };
        let heads = action_dims
            .iter()
            .map(|&n| Linear::new(hidden, n, rng))
            .collect();
        PolicyNet {
            backbone,
            heads,
            hidden,
            obs_dim,
        }
    }

    /// Observation width this policy expects.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Cardinality of each action head.
    pub fn action_dims(&self) -> Vec<usize> {
        self.heads.iter().map(Linear::output_dim).collect()
    }

    /// Fresh recurrent state for an episode (all zeros; unused by MLP).
    pub fn initial_state(&self) -> LstmState {
        LstmState::zeros(1, self.hidden)
    }

    /// Samples one tuple of sub-actions, advancing the recurrent state:
    /// [`PolicyNet::act_batch`] on one row.
    pub fn act(&self, obs: &[f32], state: &mut LstmState, rng: &mut Rng) -> PolicyStep {
        let mut scratch = PolicyScratch::new();
        let mut steps = self.act_batch(&[obs], &mut [state], &mut [rng], &mut scratch);
        steps.pop().expect("one step per row")
    }

    /// Picks the argmax action per head (evaluation mode).
    pub fn act_greedy(&self, obs: &[f32], state: &mut LstmState) -> PolicyStep {
        let argmax = |_: usize, probs: &[f32]| {
            probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
                .map(|(i, _)| i)
                .expect("non-empty head")
        };
        let mut scratch = PolicyScratch::new();
        let mut steps = self.decide_batch(&[obs], &mut [state], &mut scratch, argmax);
        steps.pop().expect("one step per row")
    }

    /// Samples one tuple of sub-actions per replica from a single batched
    /// backbone+head forward. Replica `r`'s actions are drawn from its own
    /// `rngs[r]` stream in head order, so each replica consumes the same
    /// draws whatever the batch around it — batching only changes the
    /// GEMM shape.
    pub fn act_batch(
        &self,
        obs: &[&[f32]],
        states: &mut [&mut LstmState],
        rngs: &mut [&mut Rng],
        scratch: &mut PolicyScratch,
    ) -> Vec<PolicyStep> {
        assert_eq!(rngs.len(), obs.len(), "one RNG stream per replica");
        self.decide_batch(obs, states, scratch, |r, probs| {
            sample_categorical(probs, rngs[r])
        })
    }

    /// The one decision routine behind [`PolicyNet::act_batch`],
    /// [`PolicyNet::act`] and [`PolicyNet::act_greedy`]: a batched
    /// backbone+head forward over the rows, then `pick(row, probs)` chooses
    /// each row's action head by head, in ascending head order.
    fn decide_batch(
        &self,
        obs: &[&[f32]],
        states: &mut [&mut LstmState],
        scratch: &mut PolicyScratch,
        mut pick: impl FnMut(usize, &[f32]) -> usize,
    ) -> Vec<PolicyStep> {
        let k = obs.len();
        assert!(k > 0, "act_batch needs at least one replica");
        assert_eq!(states.len(), k, "one recurrent state per replica");
        let PolicyScratch {
            obs: obs_buf,
            prev,
            lstm,
            features,
            logits,
            probs,
        } = scratch;
        obs_buf.reset_to(k, self.obs_dim);
        for (r, row) in obs.iter().enumerate() {
            assert_eq!(row.len(), self.obs_dim, "observation width mismatch");
            obs_buf.row_mut(r).copy_from_slice(row);
        }
        let mut steps: Vec<PolicyStep> = Vec::with_capacity(k);
        let feat: &Matrix = match &self.backbone {
            Backbone::Rnn(cell) => {
                prev.h.reset_to(k, self.hidden);
                prev.c.reset_to(k, self.hidden);
                for (r, st) in states.iter().enumerate() {
                    prev.h.row_mut(r).copy_from_slice(st.h.row(0));
                    prev.c.row_mut(r).copy_from_slice(st.c.row(0));
                }
                cell.forward_batch_into(obs_buf.view(), prev, lstm);
                for (r, st) in states.iter_mut().enumerate() {
                    st.h.row_mut(0).copy_from_slice(lstm.h_new().row(r));
                    st.c.row_mut(0).copy_from_slice(lstm.c_new().row(r));
                }
                for (r, row) in obs.iter().enumerate() {
                    steps.push(PolicyStep {
                        obs: Matrix::row_from_slice(row),
                        features: Matrix::row_from_slice(lstm.h_new().row(r)),
                        lstm_cache: Some(lstm.row_cache(r, prev)),
                        probs: Vec::with_capacity(self.heads.len()),
                        actions: Vec::with_capacity(self.heads.len()),
                        log_prob: 0.0,
                    });
                }
                lstm.h_new()
            }
            Backbone::Mlp(l1) => {
                l1.forward_batch_into(obs_buf.view(), features);
                tinynn::tanh_in_place(features.data_mut());
                for (r, row) in obs.iter().enumerate() {
                    steps.push(PolicyStep {
                        obs: Matrix::row_from_slice(row),
                        features: Matrix::row_from_slice(features.row(r)),
                        lstm_cache: None,
                        probs: Vec::with_capacity(self.heads.len()),
                        actions: Vec::with_capacity(self.heads.len()),
                        log_prob: 0.0,
                    });
                }
                features
            }
        };
        for head in &self.heads {
            head.forward_batch_into(feat.view(), logits);
            softmax_into(logits, probs);
            for (r, step) in steps.iter_mut().enumerate() {
                let prow = probs.row(r);
                let a = pick(r, prow);
                step.log_prob += prow[a].max(1e-12).ln();
                step.probs.push(prow.to_vec());
                step.actions.push(a);
            }
        }
        steps
    }

    /// `T×hidden` features for a recorded episode under the *current*
    /// parameters: one stacked GEMM for the MLP backbone, stateful per-step
    /// forwards for the RNN.
    fn episode_features(&self, steps: &[PolicyStep]) -> Matrix {
        match &self.backbone {
            Backbone::Mlp(l1) => {
                let mut stacked = Matrix::zeros(steps.len(), self.obs_dim);
                for (t, step) in steps.iter().enumerate() {
                    stacked.row_mut(t).copy_from_slice(step.obs.row(0));
                }
                let mut f = l1.forward(&stacked);
                tinynn::tanh_in_place(f.data_mut());
                f
            }
            Backbone::Rnn(cell) => {
                let mut state = self.initial_state();
                let mut feats = Matrix::zeros(steps.len(), self.hidden);
                for (t, step) in steps.iter().enumerate() {
                    let (next, _) = cell.forward(&step.obs, &state);
                    feats.row_mut(t).copy_from_slice(next.h.row(0));
                    state = next;
                }
                feats
            }
        }
    }

    /// Recomputes `log π(a|s)` and per-head probabilities for a recorded
    /// episode under the *current* parameters (needed by PPO's ratio).
    /// Returns one `(log_prob, probs)` pair per step. Head forwards run as
    /// single `T`-row GEMMs over the episode.
    pub fn replay_log_probs(&self, steps: &[PolicyStep]) -> Vec<(f32, Vec<Vec<f32>>)> {
        if steps.is_empty() {
            return Vec::new();
        }
        let feats = self.episode_features(steps);
        let mut out: Vec<(f32, Vec<Vec<f32>>)> = steps
            .iter()
            .map(|_| (0.0, Vec::with_capacity(self.heads.len())))
            .collect();
        for (h, head) in self.heads.iter().enumerate() {
            let p = softmax(&head.forward(&feats));
            for (t, entry) in out.iter_mut().enumerate() {
                let a = steps[t].actions[h];
                entry.0 += p.get(t, a).max(1e-12).ln();
                entry.1.push(p.row(t).to_vec());
            }
        }
        out
    }

    /// Backpropagates a policy-gradient loss through the whole episode:
    ///
    /// ```text
    /// L = Σ_t coef_t · (−log π(a_t|s_t)) − β · Σ_t H(π(·|s_t))
    /// ```
    ///
    /// `coef_t` is the advantage/return weight (positive coefficients
    /// reinforce the taken action). When `probs_override` is given (PPO),
    /// the per-step dL/dlogits is scaled by `ratio_scale[t]` and evaluated
    /// at the overridden probabilities.
    pub fn backward_episode(
        &mut self,
        steps: &[PolicyStep],
        coefs: &[f32],
        entropy_beta: f32,
        probs_override: Option<&[Vec<Vec<f32>>]>,
        ratio_scale: Option<&[f32]>,
    ) {
        assert_eq!(steps.len(), coefs.len(), "one coefficient per step");
        if steps.is_empty() {
            return;
        }
        let t_len = steps.len();
        // The episode's decision-time features stacked `T×hidden`: each
        // head's backward is then one T-row GEMM pair instead of T matvecs.
        // Gradients must be zero on entry (every caller pairs this with
        // `apply_update`); with zeroed accumulators the batched per-element
        // sums (ascending t for the heads, descending t for the LSTM's BPTT)
        // are bit-identical to the per-step adds.
        let mut feats = Matrix::zeros(t_len, self.hidden);
        for (t, step) in steps.iter().enumerate() {
            feats.row_mut(t).copy_from_slice(step.features.row(0));
        }
        let mut dfeat_total = Matrix::zeros(t_len, self.hidden);
        let mut dlogits = Matrix::default();
        for (h, head) in self.heads.iter_mut().enumerate() {
            let n = head.output_dim();
            dlogits.reset_to(t_len, n);
            for t in 0..t_len {
                let probs: &[f32] = match probs_override {
                    Some(all) => &all[t][h],
                    None => &steps[t].probs[h],
                };
                let a = steps[t].actions[h];
                let scale = ratio_scale.map_or(1.0, |r| r[t]);
                // d(−βH)/dlogit_j needs H(π); a pure function of the row,
                // hoisted out of the j loop.
                let ent = if entropy_beta > 0.0 {
                    categorical_entropy(probs)
                } else {
                    0.0
                };
                for (j, &p) in probs.iter().enumerate() {
                    let onehot = if j == a { 1.0 } else { 0.0 };
                    // d/dlogits of coef·(−logπ(a)) = coef·(p − onehot(a)).
                    let mut g = coefs[t] * scale * (p - onehot);
                    if entropy_beta > 0.0 {
                        g += entropy_beta * p * (p.max(1e-12).ln() + ent);
                    }
                    dlogits.set(t, j, g);
                }
            }
            let dfeat_h = head.backward(&feats, &dlogits);
            dfeat_total.add_assign(&dfeat_h);
        }
        // Backbone backward (one whole-episode BPTT call for the RNN, one
        // stacked GEMM for MLP).
        match &mut self.backbone {
            Backbone::Rnn(cell) => {
                let seq: Vec<(&[f32], &LstmCache)> = steps
                    .iter()
                    .map(|step| {
                        let cache = step
                            .lstm_cache
                            .as_ref()
                            .expect("RNN policy steps carry an LSTM cache");
                        (step.obs.row(0), cache)
                    })
                    .collect();
                cell.backward_sequence(&seq, dfeat_total.view());
            }
            Backbone::Mlp(l1) => {
                // tanh derivative through the cached activated features.
                let dpre = dfeat_total.hadamard(&feats.map(|v| 1.0 - v * v));
                let mut stacked_obs = Matrix::zeros(t_len, self.obs_dim);
                for (t, step) in steps.iter().enumerate() {
                    stacked_obs.row_mut(t).copy_from_slice(step.obs.row(0));
                }
                l1.backward(&stacked_obs, &dpre);
            }
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        match &mut self.backbone {
            Backbone::Rnn(c) => c.zero_grad(),
            Backbone::Mlp(l) => l.zero_grad(),
        }
        for h in &mut self.heads {
            h.zero_grad();
        }
    }

    /// Mutable references to all parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = match &mut self.backbone {
            Backbone::Rnn(c) => c.params_mut(),
            Backbone::Mlp(l) => l.params_mut(),
        };
        for h in &mut self.heads {
            params.extend(h.params_mut());
        }
        params
    }

    /// Applies one clipped Adam update, which also clears the gradients
    /// (see [`Adam::update`]).
    pub fn apply_update(&mut self, opt: &mut Adam, max_grad_norm: f32) {
        opt.update(&mut self.params_mut(), max_grad_norm);
    }

    /// Total scalar parameter count (Table V's memory-overhead column).
    pub fn param_count(&self) -> usize {
        let backbone = match &self.backbone {
            Backbone::Rnn(c) => {
                let (a, b) = c.wx.w.shape();
                let (d, e) = c.wh.w.shape();
                a * b + d * e + c.b.w.cols()
            }
            Backbone::Mlp(l) => l.input_dim() * l.output_dim() + l.output_dim(),
        };
        backbone
            + self
                .heads
                .iter()
                .map(|h| h.input_dim() * h.output_dim() + h.output_dim())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::SeedableRng;

    fn rng() -> Rng {
        Rng::seed_from_u64(99)
    }

    #[test]
    fn act_produces_valid_actions() {
        let mut rng = rng();
        for kind in [PolicyBackboneKind::Rnn, PolicyBackboneKind::Mlp] {
            let policy = PolicyNet::new(5, &[12, 12, 3], kind, 32, &mut rng);
            let mut state = policy.initial_state();
            let step = policy.act(&[0.1, -0.2, 0.3, 0.0, 1.0], &mut state, &mut rng);
            assert_eq!(step.actions.len(), 3);
            assert!(step.actions[0] < 12);
            assert!(step.actions[2] < 3);
            assert!(step.log_prob <= 0.0);
        }
    }

    #[test]
    fn reinforce_update_increases_action_probability() {
        // Single-state bandit: reinforcing action 2 with positive coef must
        // raise π(2|s). This is the crucial sign check for the whole PG path.
        let mut rng = rng();
        for kind in [PolicyBackboneKind::Rnn, PolicyBackboneKind::Mlp] {
            let mut policy = PolicyNet::new(3, &[4], kind, 16, &mut rng);
            let obs = [0.5, -0.5, 0.1];
            let mut opt = Adam::new(5e-2);
            let before = {
                let mut s = policy.initial_state();
                policy.act_greedy(&obs, &mut s).probs[0][2]
            };
            for _ in 0..30 {
                let mut s = policy.initial_state();
                let mut step = policy.act(&obs, &mut s, &mut rng);
                // Force the "taken" action to 2 and reinforce it.
                step.actions[0] = 2;
                policy.backward_episode(&[step], &[1.0], 0.0, None, None);
                policy.apply_update(&mut opt, 5.0);
            }
            let after = {
                let mut s = policy.initial_state();
                policy.act_greedy(&obs, &mut s).probs[0][2]
            };
            assert!(
                after > before + 0.1,
                "{kind:?}: p(a=2) went {before:.3} -> {after:.3}"
            );
        }
    }

    #[test]
    fn negative_coefficient_suppresses_action() {
        let mut rng = rng();
        let mut policy = PolicyNet::new(2, &[3], PolicyBackboneKind::Mlp, 16, &mut rng);
        let obs = [1.0, -1.0];
        let mut opt = Adam::new(5e-2);
        let before = {
            let mut s = policy.initial_state();
            policy.act_greedy(&obs, &mut s).probs[0][0]
        };
        for _ in 0..30 {
            let mut s = policy.initial_state();
            let mut step = policy.act(&obs, &mut s, &mut rng);
            step.actions[0] = 0;
            policy.backward_episode(&[step], &[-1.0], 0.0, None, None);
            policy.apply_update(&mut opt, 5.0);
        }
        let after = {
            let mut s = policy.initial_state();
            policy.act_greedy(&obs, &mut s).probs[0][0]
        };
        assert!(after < before, "p(a=0) went {before:.3} -> {after:.3}");
    }

    #[test]
    fn entropy_bonus_flattens_distribution() {
        let mut rng = rng();
        let mut policy = PolicyNet::new(2, &[4], PolicyBackboneKind::Mlp, 16, &mut rng);
        let obs = [0.3, 0.7];
        let mut opt = Adam::new(5e-2);
        // Pure entropy maximization (zero advantage, positive beta).
        for _ in 0..60 {
            let mut s = policy.initial_state();
            let step = policy.act(&obs, &mut s, &mut rng);
            policy.backward_episode(&[step], &[0.0], 0.1, None, None);
            policy.apply_update(&mut opt, 5.0);
        }
        let mut s = policy.initial_state();
        let probs = &policy.act_greedy(&obs, &mut s).probs[0];
        let ent = categorical_entropy(probs);
        assert!(ent > 0.95 * 4.0f32.ln(), "entropy {ent} not near uniform");
    }

    #[test]
    fn replay_matches_act_log_probs() {
        let mut rng = rng();
        let policy = PolicyNet::new(4, &[5, 5], PolicyBackboneKind::Rnn, 16, &mut rng);
        let mut state = policy.initial_state();
        let steps: Vec<PolicyStep> = (0..3)
            .map(|i| policy.act(&[i as f32, 0.0, 1.0, -1.0], &mut state, &mut rng))
            .collect();
        let replayed = policy.replay_log_probs(&steps);
        for (step, (lp, _)) in steps.iter().zip(&replayed) {
            assert!((step.log_prob - lp).abs() < 1e-5);
        }
    }

    #[test]
    fn act_batch_rows_match_one_row_calls_bit_for_bit() {
        // Six rows span a full 4-row GEMM block plus a partial one; three
        // steps carry distinct recurrent states from row to row.
        const ROWS: usize = 6;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut init = rng();
        for kind in [PolicyBackboneKind::Rnn, PolicyBackboneKind::Mlp] {
            let policy = PolicyNet::new(5, &[7, 4, 3], kind, 16, &mut init);
            let mut batch_states: Vec<LstmState> =
                (0..ROWS).map(|_| policy.initial_state()).collect();
            let mut row_states = batch_states.clone();
            let mut batch_rngs: Vec<Rng> = (0..ROWS as u64).map(Rng::seed_from_u64).collect();
            let mut row_rngs = batch_rngs.clone();
            let mut scratch = PolicyScratch::new();
            for t in 0..3 {
                let obs: Vec<Vec<f32>> = (0..ROWS)
                    .map(|r| {
                        (0..5)
                            .map(|j| ((r * 7 + j * 3 + t * 5) % 11) as f32 / 5.0 - 1.0)
                            .collect()
                    })
                    .collect();
                let obs_refs: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
                let mut state_refs: Vec<&mut LstmState> = batch_states.iter_mut().collect();
                let mut rng_refs: Vec<&mut Rng> = batch_rngs.iter_mut().collect();
                let batch =
                    policy.act_batch(&obs_refs, &mut state_refs, &mut rng_refs, &mut scratch);
                for r in 0..ROWS {
                    let one = policy.act(&obs[r], &mut row_states[r], &mut row_rngs[r]);
                    let what = format!("{kind:?} step {t} row {r}");
                    assert_eq!(one.actions, batch[r].actions, "{what}");
                    assert_eq!(
                        one.log_prob.to_bits(),
                        batch[r].log_prob.to_bits(),
                        "{what}"
                    );
                    for (a, b) in one.probs.iter().zip(&batch[r].probs) {
                        assert_eq!(bits(a), bits(b), "{what}");
                    }
                    assert_eq!(one.probs.len(), batch[r].probs.len(), "{what}");
                    assert_eq!(
                        bits(row_states[r].h.data()),
                        bits(batch_states[r].h.data()),
                        "{what}"
                    );
                    assert_eq!(
                        bits(row_states[r].c.data()),
                        bits(batch_states[r].c.data()),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn param_count_positive_and_kind_dependent() {
        let mut rng = rng();
        let rnn = PolicyNet::new(10, &[12, 12], PolicyBackboneKind::Rnn, 128, &mut rng);
        let mlp = PolicyNet::new(10, &[12, 12], PolicyBackboneKind::Mlp, 128, &mut rng);
        assert!(rnn.param_count() > mlp.param_count());
    }
}
