//! Weight learning: empirical risk minimisation over evidence variables.
//!
//! §2.2 of the paper: "Variables that correspond to clean cells in `D_c`
//! are treated as evidence and are used to learn the parameters of the
//! model … efficient methods such as stochastic gradient descent are used."
//!
//! "Evidence variables" here are the ones the graph holds: the compiler
//! (`holoclean::compile`) keeps clean cells only of attributes whose
//! weights a query variable can read, so nothing below trains a weight
//! inference never touches.
//!
//! For each evidence variable, the conditional likelihood of its observed
//! candidate under the unary features is a multinomial logistic regression
//! term; SGD ascends the log-likelihood with L2 shrinkage. Clique factors
//! do not enter the gradient: in HoloClean's groundings, cliques touch
//! query variables (noisy cells), whose values are unknown at training
//! time — the same simplification DeepDive applies when evidence
//! separates from the query set.
//!
//! ## Minibatches and determinism
//!
//! A seed-fixed permutation of the eligible examples is cut into
//! minibatches of [`LearnConfig::minibatch`] examples, every example's
//! sparse gradient is computed against the weights frozen at minibatch
//! start, and the summed gradient is applied once per minibatch, in
//! weight-id order. Inside a minibatch the examples fold in **fixed
//! shards** of `GRAD_SHARD_EXAMPLES` (8) on the caller's thread. Training
//! is sequential, so it is deterministic given the seed and the example
//! order, whatever thread budget the rest of the pipeline runs with. The
//! gradient is summed (not averaged) over the minibatch, so one epoch
//! applies the same total step mass as classic per-example SGD at the
//! same learning rate.
//!
//! ## The kernel
//!
//! The trainer reads the compiled [`DesignMatrix`] in place: an
//! example's candidates are the rows of `design.var_range(v)`, wherever
//! `v` sits.
//! Per example of a shard it
//!
//! 1. scores each candidate row with the blocked kernel
//!    ([`crate::design::score_features`], the one inference and the score
//!    cache use) and turns the scores into probabilities with the fused
//!    [`crate::math::softmax_in_place`];
//! 2. for each row whose residual `1[k = target] − p_k` is non-zero, adds
//!    `x · residual − l2 · w` into the **shard subtotal** of every
//!    non-fixed weight of the row, in entry order. A generation stamp per
//!    weight id (bumped per shard) opens a fresh `+0.0` subtotal on a
//!    weight's first touch inside the shard, so one minibatch's shard runs
//!    sit back to back in the scratch's `touched` / `grad` arrays.
//!
//! The runs then add in shard order into one dense accumulator (`f64` per
//! weight plus a `u64` touched-bitmap), which is drained in weight-id
//! order: the gradient norm is summed and, unless it is non-finite, the
//! update applied in that order.
//!
//! ## Invariants
//!
//! * **Shard-order addition** — bit-for-bit the test-only hash-map
//!   trainer (`oracle`). A shard subtotal adds a weight's increments in
//!   the order the shard visits them, and the accumulator adds the
//!   subtotals in shard order starting from `+0.0` — the oracle's
//!   `*acc.entry(w).or_insert(0.0) += g` merge. The subtotals are part of
//!   the addition order, not a schedule: summing a minibatch's increments
//!   straight into the accumulator would round differently.
//! * **First touch is a copy** — a shard subtotal is never `-0.0` (it
//!   starts at `+0.0`, and round-to-nearest yields `-0.0` neither from a
//!   sum with a `+0.0` term nor from an exact cancellation), so the first
//!   `+0.0 + subtotal` into a clean accumulator slot is bitwise
//!   `subtotal`.
//! * **Bitmap order ≡ id order** — bit `i & 63` of word `i >> 6` stands
//!   for weight `i`, so ascending words × ascending `trailing_zeros` is
//!   ascending weight id, with no sort.
//! * **Clean between minibatches** — draining zeroes every slot and word
//!   it visits, so each minibatch starts from an all-`+0.0`, all-clear
//!   accumulator without an `O(weight_count)` reset.
//!
//! ## One call
//!
//! [`train_with_threads`] lists the eligible examples (evidence with more
//! than one candidate) with their targets, seeds the RNG, and allocates
//! the stamp arrays and the accumulator at `weight_count`. That list, those
//! arrays and a few reused buffers are the whole per-call state: each
//! epoch shuffles the list once, no design row is copied, and nothing
//! outlives the call. The `O(weight_count)` arrays stay a few KB because
//! the registry ties its weights per attribute pair.
//!
//! ## Divergence
//!
//! A learning rate large enough to overflow the weights makes every later
//! gradient non-finite. The epoch loop checks each minibatch's gradient
//! norm *before* applying it: a non-finite gradient is never applied, the
//! first one freezes the weights for the rest of the call (so no NaN is
//! ever written into them), and every such minibatch is counted in
//! [`LearnStats::non_finite_minibatches`]. The frozen weights are not a
//! usable model — they may already hold the overflowed `±∞` values that
//! made the gradient non-finite — so the repair engine turns a non-zero
//! count into a typed error (`HoloError::LearnDiverged`) instead of
//! handing them to inference.

use crate::design::DesignMatrix;
use crate::graph::{FactorGraph, VarId};
use crate::math::softmax_in_place;
use crate::weights::{WeightId, Weights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Examples per gradient shard — the fixed unit of subtotals inside a
/// minibatch, so the default minibatch spans 16 shards. Part of the
/// addition order (see "Shard-order addition" in the module docs); the
/// test-only oracle cuts the same boundaries.
pub(crate) const GRAD_SHARD_EXAMPLES: usize = 8;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Passes over the evidence set.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Multiplicative per-epoch learning-rate decay.
    pub decay: f64,
    /// L2 regularisation strength.
    pub l2: f64,
    /// Shuffle seed — learning is deterministic given the seed.
    pub seed: u64,
    /// Examples per minibatch: gradients are computed against the weights
    /// frozen at minibatch start and applied once per minibatch. `0` is
    /// treated as `1` (classic per-example SGD, fully sequential).
    pub minibatch: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            epochs: 10,
            learning_rate: 0.1,
            decay: 0.95,
            l2: 1e-4,
            seed: 0x1ea2,
            minibatch: 128,
        }
    }
}

/// Diagnostics from a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnStats {
    /// Mean per-example log-likelihood after the final epoch.
    pub final_log_likelihood: f64,
    /// Number of evidence variables trained on.
    pub examples: usize,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Total minibatches executed across all epochs.
    pub minibatches: usize,
    /// L2 norm of the **last** minibatch's accumulated gradient. A noisy
    /// convergence signal (one minibatch's draw); see
    /// [`LearnStats::grad_norm_mean`] for the stable one.
    pub grad_norm: f64,
    /// Mean minibatch gradient L2 norm over the **final epoch** — the
    /// stable convergence signal `diag` reports (near zero when the
    /// model has stopped moving).
    pub grad_norm_mean: f64,
    /// Minibatches whose gradient norm was non-finite (NaN or ±∞) — SGD
    /// diverged. From the first one on no update is applied; non-zero
    /// means the run failed and the weights are not a usable model (see
    /// the module docs).
    pub non_finite_minibatches: usize,
    /// Always 0: the trainer reads the design matrix in place and gathers
    /// nothing. Kept because the frozen benchmark reads it as
    /// `factor.learn.arena_mb`.
    pub packed_bytes: usize,
}

impl LearnStats {
    /// The record of a run over `examples` examples and `epochs` epochs,
    /// filled from the epoch loop's outcome.
    fn new(examples: usize, epochs: usize, out: EpochOutcome) -> LearnStats {
        LearnStats {
            final_log_likelihood: if examples == 0 {
                0.0
            } else {
                out.ll_sum / examples as f64
            },
            examples,
            epochs,
            minibatches: out.minibatches,
            grad_norm: out.grad_norm,
            grad_norm_mean: out.grad_norm_mean,
            non_finite_minibatches: out.non_finite_minibatches,
            packed_bytes: 0,
        }
    }

    /// Everything the kernel and the test-only oracle both compute —
    /// counts exactly, floats by bit pattern — for bitwise comparisons.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> ([usize; 4], [u64; 3]) {
        (
            [
                self.examples,
                self.epochs,
                self.minibatches,
                self.non_finite_minibatches,
            ],
            [
                self.final_log_likelihood.to_bits(),
                self.grad_norm.to_bits(),
                self.grad_norm_mean.to_bits(),
            ],
        )
    }
}

/// Trains the learnable weights on the evidence variables of `graph`.
/// Training runs on the caller's thread: `threads` is not read, and stays
/// in the signature only for callers that pass the pipeline's budget.
///
/// Returns diagnostics; `weights` is updated in place. Evidence variables
/// with a single candidate carry no gradient signal and are skipped.
///
/// Examples are visited in the graph's variable-id order — for a graph
/// built by one compile pass that *is* the canonical (attribute-major,
/// cell-sorted) evidence order. SGD's seeded shuffle permutes example
/// *positions*, so the example sequence — and therefore every learned
/// weight, bitwise — depends on that initial order.
pub fn train_with_threads(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    _threads: usize,
) -> LearnStats {
    train_examples(graph, weights, config, &graph.evidence_vars())
}

/// [`train_with_threads`] over a caller-supplied example order.
///
/// Ineligible entries (not evidence, or a single candidate) are dropped;
/// order is otherwise preserved. One shuffle is drawn per epoch.
pub(crate) fn train_examples(
    graph: &FactorGraph,
    weights: &mut Weights,
    config: &LearnConfig,
    examples: &[VarId],
) -> LearnStats {
    let mut examples = eligible_examples(graph, examples);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let out = run_epochs(graph.design(), weights, config, &mut examples, &mut rng);
    LearnStats::new(examples.len(), config.epochs, out)
}

/// The entries of `examples` that carry gradient signal, in order, each
/// with its observed target: an example must be evidence with more than
/// one candidate. Non-evidence ids in a caller's window are dropped here.
fn eligible_examples(graph: &FactorGraph, examples: &[VarId]) -> Vec<(VarId, usize)> {
    examples
        .iter()
        .filter_map(|&v| {
            let var = graph.var(v);
            match var.evidence {
                Some(target) if var.arity() > 1 => Some((v, target)),
                _ => None,
            }
        })
        .collect()
}

/// What one epoch loop reports back to the stats record.
#[derive(Default)]
struct EpochOutcome {
    /// `Σ log P(target)` of the final epoch.
    ll_sum: f64,
    minibatches: usize,
    grad_norm: f64,
    grad_norm_mean: f64,
    non_finite_minibatches: usize,
}

/// Reusable scratch of the gradient fold. `touched` / `grad` collect one
/// minibatch's shard runs back to back (cleared per minibatch); the
/// generation stamp (`tick`, bumped per shard) opens a fresh subtotal for
/// the first touch of a weight inside each shard.
struct GradScratch {
    /// Candidate scores, then probabilities, of the current example.
    scores: Vec<f64>,
    /// Generation stamp per weight id.
    stamp: Vec<u64>,
    /// Index into `grad` of the current shard's subtotal per stamped id.
    slot_of: Vec<u32>,
    /// Shard subtotals, one per `(shard, touched weight)`, shard runs
    /// back to back in shard order.
    grad: Vec<f64>,
    /// Weight id per `grad` entry, in first-touch order within a shard.
    touched: Vec<WeightId>,
    /// Current shard generation.
    tick: u64,
}

impl GradScratch {
    fn new(weight_count: usize) -> Self {
        GradScratch {
            scores: Vec::new(),
            stamp: vec![0u64; weight_count],
            slot_of: vec![0u32; weight_count],
            grad: Vec::new(),
            touched: Vec::new(),
            tick: 0,
        }
    }
}

/// The dense per-call minibatch gradient accumulator: one `f64` per
/// weight plus a touched-bitmap (bit `i & 63` of word `i >> 6` = weight
/// `i`). All-`+0.0` and all-clear between minibatches.
struct GradAccumulator {
    sum: Vec<f64>,
    touched: Vec<u64>,
}

impl GradAccumulator {
    fn new(weight_count: usize) -> Self {
        GradAccumulator {
            sum: vec![0.0; weight_count],
            touched: vec![0u64; weight_count.div_ceil(64)],
        }
    }

    /// Adds a sequence of `(weight, shard subtotal)` pairs in the order
    /// given — call with shard runs in shard order.
    fn add_runs(&mut self, ids: &[WeightId], subtotals: &[f64]) {
        for (&w, &g) in ids.iter().zip(subtotals) {
            let i = w.index();
            self.touched[i >> 6] |= 1u64 << (i & 63);
            self.sum[i] += g;
        }
    }

    /// Moves the accumulated gradient into `out` (cleared first) as
    /// `(WeightId, sum)` in ascending id order, leaving the accumulator
    /// clean for the next minibatch.
    fn drain_sorted(&mut self, out: &mut Vec<(WeightId, f64)>) {
        out.clear();
        for (wi, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = (wi << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push((WeightId(i as u32), std::mem::take(&mut self.sum[i])));
            }
        }
    }
}

/// Folds one shard against the minibatch-start `weights`: appends its run
/// of per-weight subtotals to the scratch's `touched` / `grad` arrays and
/// returns the shard's log-likelihood sum.
fn shard_gradient(
    design: &DesignMatrix,
    weights: &Weights,
    l2: f64,
    scratch: &mut GradScratch,
    shard: &[(VarId, usize)],
) -> f64 {
    scratch.tick += 1;
    let mut ll = 0.0;
    for &(v, target) in shard {
        design.score_var_into(v, weights, &mut scratch.scores);
        softmax_in_place(&mut scratch.scores);
        ll += scratch.scores[target].max(1e-300).ln();
        // Gradient of log P(target): x · (1[k = target] − p_k), with L2
        // shrinkage toward zero per feature occurrence.
        for (k, r) in design.var_range(v).enumerate() {
            let residual = f64::from(u8::from(k == target)) - scratch.scores[k];
            if residual == 0.0 {
                continue;
            }
            for &(w, x) in design.row(r) {
                if weights.is_fixed(w) {
                    continue;
                }
                let wi = w.index();
                if scratch.stamp[wi] != scratch.tick {
                    scratch.stamp[wi] = scratch.tick;
                    scratch.slot_of[wi] = scratch.grad.len() as u32;
                    scratch.touched.push(w);
                    scratch.grad.push(0.0);
                }
                scratch.grad[scratch.slot_of[wi] as usize] += x * residual - l2 * weights.get(w);
            }
        }
    }
    ll
}

/// The epoch loop: one seeded shuffle of the example positions per epoch,
/// minibatch chunks folded in fixed shards through one scratch, shard
/// runs summed in the dense accumulator, and the gradient applied in
/// weight-id order off its bitmap. A minibatch whose gradient norm is
/// non-finite is counted and **not** applied, and no later minibatch is
/// applied either (see "Divergence" in the module docs).
fn run_epochs(
    design: &DesignMatrix,
    weights: &mut Weights,
    config: &LearnConfig,
    examples: &mut [(VarId, usize)],
    rng: &mut StdRng,
) -> EpochOutcome {
    let batch = config.minibatch.max(1);
    let mut scratch = GradScratch::new(weights.len());
    let mut acc = GradAccumulator::new(weights.len());
    let mut grad: Vec<(WeightId, f64)> = Vec::new();
    let mut lr = config.learning_rate;
    let mut out = EpochOutcome::default();
    for _epoch in 0..config.epochs {
        examples.shuffle(rng);
        let mut ll_sum = 0.0;
        let mut norm_sum = 0.0;
        let mut epoch_minibatches = 0usize;
        for minibatch in examples.chunks(batch) {
            scratch.grad.clear();
            scratch.touched.clear();
            let frozen: &Weights = weights;
            let Some(ll) = minibatch
                .chunks(GRAD_SHARD_EXAMPLES)
                .map(|shard| shard_gradient(design, frozen, config.l2, &mut scratch, shard))
                .reduce(|a, b| a + b)
            else {
                continue;
            };
            acc.add_runs(&scratch.touched, &scratch.grad);
            acc.drain_sorted(&mut grad);
            ll_sum += ll;
            out.minibatches += 1;
            epoch_minibatches += 1;
            let mut norm_sq = 0.0;
            for &(_, g) in &grad {
                norm_sq += g * g;
            }
            out.grad_norm = norm_sq.sqrt();
            norm_sum += out.grad_norm;
            if !norm_sq.is_finite() {
                out.non_finite_minibatches += 1;
            }
            if out.non_finite_minibatches == 0 {
                for &(w, g) in &grad {
                    weights.update(w, lr * g);
                }
            }
        }
        out.ll_sum = ll_sum;
        out.grad_norm_mean = if epoch_minibatches == 0 {
            0.0
        } else {
            norm_sum / epoch_minibatches as f64
        };
        lr *= config.decay;
    }
    out
}

/// The **test-only reference** trainer the kernel is pinned against bit
/// for bit: it walks the same CSR rows per example but accumulates
/// gradients in hash maps, merges shard maps in shard order and applies
/// the update in sorted id order. Same entry points, same RNG
/// consumption, same divergence rule as the production path.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{eligible_examples, EpochOutcome, LearnConfig, LearnStats, GRAD_SHARD_EXAMPLES};
    use crate::design::DesignMatrix;
    use crate::graph::{FactorGraph, VarId};
    use crate::math::softmax_in_place;
    use crate::weights::{WeightId, Weights};
    use holo_dataset::FxHashMap;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Reference [`super::train_examples`].
    pub(crate) fn train_examples(
        graph: &FactorGraph,
        weights: &mut Weights,
        config: &LearnConfig,
        examples: &[VarId],
    ) -> LearnStats {
        let mut examples = eligible_examples(graph, examples);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let out = run_epochs(graph.design(), weights, config, &mut examples, &mut rng);
        LearnStats::new(examples.len(), config.epochs, out)
    }

    fn run_epochs(
        design: &DesignMatrix,
        weights: &mut Weights,
        config: &LearnConfig,
        examples: &mut [(VarId, usize)],
        rng: &mut StdRng,
    ) -> EpochOutcome {
        let batch = config.minibatch.max(1);
        let mut lr = config.learning_rate;
        let mut keys: Vec<WeightId> = Vec::new();
        let mut out = EpochOutcome::default();
        for _epoch in 0..config.epochs {
            examples.shuffle(rng);
            let mut ll_sum = 0.0;
            let mut norm_sum = 0.0;
            let mut epoch_minibatches = 0usize;
            for minibatch in examples.chunks(batch) {
                let Some((grad, ll)) = minibatch_gradient(design, weights, config, minibatch)
                else {
                    continue;
                };
                ll_sum += ll;
                out.minibatches += 1;
                epoch_minibatches += 1;
                // Norm and update both walk the weights in id order.
                keys.clear();
                keys.extend(grad.keys().copied());
                keys.sort_unstable();
                let mut norm_sq = 0.0;
                for &w in &keys {
                    norm_sq += grad[&w] * grad[&w];
                }
                out.grad_norm = norm_sq.sqrt();
                norm_sum += out.grad_norm;
                if !norm_sq.is_finite() {
                    out.non_finite_minibatches += 1;
                }
                if out.non_finite_minibatches == 0 {
                    for &w in &keys {
                        weights.update(w, lr * grad[&w]);
                    }
                }
            }
            out.ll_sum = ll_sum;
            out.grad_norm_mean = if epoch_minibatches == 0 {
                0.0
            } else {
                norm_sum / epoch_minibatches as f64
            };
            lr *= config.decay;
        }
        out
    }

    /// Sparse summed gradient of one minibatch (plus its log-likelihood
    /// sum), computed against the frozen `weights`. Examples fold in
    /// fixed-size shards merged in shard order — the kernel's
    /// accumulation order.
    fn minibatch_gradient(
        design: &DesignMatrix,
        weights: &Weights,
        config: &LearnConfig,
        minibatch: &[(VarId, usize)],
    ) -> Option<(FxHashMap<WeightId, f64>, f64)> {
        minibatch
            .chunks(GRAD_SHARD_EXAMPLES)
            .map(|shard| {
                let mut grad: FxHashMap<WeightId, f64> = FxHashMap::default();
                let mut ll = 0.0;
                let mut scores: Vec<f64> = Vec::new();
                for &(v, target) in shard {
                    design.score_var_into(v, weights, &mut scores);
                    softmax_in_place(&mut scores);
                    ll += scores[target].max(1e-300).ln();
                    let rows = design.var_range(v);
                    for (k, (r, &p_k)) in rows.zip(scores.iter()).enumerate() {
                        let residual = f64::from(u8::from(k == target)) - p_k;
                        if residual == 0.0 {
                            continue;
                        }
                        for &(w, x) in design.row(r) {
                            if weights.is_fixed(w) {
                                continue;
                            }
                            *grad.entry(w).or_insert(0.0) +=
                                x * residual - config.l2 * weights.get(w);
                        }
                    }
                }
                (grad, ll)
            })
            .reduce(|(mut acc, acc_ll), (grad, ll)| {
                for (w, g) in grad {
                    *acc.entry(w).or_insert(0.0) += g;
                }
                (acc, acc_ll + ll)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Variable};
    use crate::marginals::reference::exact_unary;
    use crate::weights::FeatureRegistry;
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// [`train_with_threads`] on a single thread.
    fn train(graph: &FactorGraph, weights: &mut Weights, config: &LearnConfig) -> LearnStats {
        train_with_threads(graph, weights, config, 1)
    }

    /// Perfectly separable evidence: candidate 0 always carries feature A
    /// and is always correct; candidate 1 always carries feature B. SGD
    /// must drive w(A) up and leave candidate 0 dominant.
    #[test]
    fn learns_separating_weights() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let fa = reg.learnable("A");
        let fb = reg.learnable("B");
        let mut g = GraphBuilder::new();
        for _ in 0..50 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
            g.add_feature(v, 0, fa, 1.0);
            g.add_feature(v, 1, fb, 1.0);
        }
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(1)));
        g.add_feature(q, 0, fa, 1.0);
        g.add_feature(q, 1, fb, 1.0);
        let g = g.build();
        let mut w = reg.build_weights();
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 50);
        assert!(stats.minibatches > 0);
        assert!(
            w.get(fa) > w.get(fb),
            "w(A)={} w(B)={}",
            w.get(fa),
            w.get(fb)
        );
        let m = exact_unary(&g, &w);
        assert!(m.prob(q, 0) > 0.8, "query prefers the learned signal");
        assert!(stats.final_log_likelihood > -0.5);
    }

    /// Mixed evidence (70/30): the learned model must put ≈0.7 on the
    /// majority candidate — weights calibrate, not saturate.
    #[test]
    fn calibrates_to_empirical_frequencies() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let f = reg.learnable("shared");
        let mut g = GraphBuilder::new();
        for i in 0..100 {
            let target = usize::from(i >= 70);
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], target));
            // Feature fires only for candidate 0; its weight must settle at
            // log(0.7/0.3).
            g.add_feature(v, 0, f, 1.0);
        }
        let g = g.build();
        let mut w = reg.build_weights();
        train(
            &g,
            &mut w,
            &LearnConfig {
                epochs: 200,
                learning_rate: 0.05,
                decay: 1.0,
                l2: 0.0,
                seed: 1,
                minibatch: 32,
            },
        );
        let logit = w.get(f);
        let p = 1.0 / (1.0 + (-logit).exp());
        assert!((p - 0.7).abs() < 0.03, "calibrated p = {p}");
    }

    #[test]
    fn fixed_weights_untouched() {
        let mut reg: FeatureRegistry<&'static str> = FeatureRegistry::new();
        let prior = reg.fixed("prior", 2.5);
        let feat = reg.learnable("feat");
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
        g.add_feature(v, 0, prior, 1.0);
        g.add_feature(v, 1, feat, 1.0);
        let g = g.build();
        let mut w = reg.build_weights();
        train(&g, &mut w, &LearnConfig::default());
        assert_eq!(w.get(prior), 2.5);
        assert!(w.get(feat) < 0.0, "competing learnable weight pushed down");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut g = GraphBuilder::new();
        let f = WeightId(0);
        for i in 0..20 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let g = g.build();
        let cfg = LearnConfig::default();
        let mut w1 = Weights::zeros(1);
        let mut w2 = Weights::zeros(1);
        train(&g, &mut w1, &cfg);
        train(&g, &mut w2, &cfg);
        assert_eq!(w1.get(f), w2.get(f));
    }

    /// The headline equivalence of the kernel: for every minibatch size
    /// — ones that do and don't divide the example count or the shard
    /// size, and ones past the example count — the trainer's weights and
    /// stats are bit-for-bit the hash-map oracle's.
    #[test]
    fn trainer_is_bitwise_the_oracle_at_every_minibatch_size() {
        let mut reg: FeatureRegistry<(u8, usize)> = FeatureRegistry::new();
        let prior = reg.fixed((b'p', 0), 1.25);
        let mut g = GraphBuilder::new();
        for i in 0..90usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2), sym(3)], i % 3));
            for k in 0..3usize {
                let w = reg.learnable((b'a', (i * 3 + k) % 17));
                g.add_feature(v, k, w, 0.2 + ((i + k) % 4) as f64 * 0.4);
            }
            g.add_feature(v, i % 3, prior, 1.0);
        }
        let g = g.build();
        let order = g.evidence_vars();
        for minibatch in [1, 7, 8, 32, 33, 64, 128, 150, 400] {
            let cfg = LearnConfig {
                minibatch,
                ..LearnConfig::default()
            };
            let mut w_oracle = reg.build_weights();
            let mut w = reg.build_weights();
            let s_oracle = oracle::train_examples(&g, &mut w_oracle, &cfg, &order);
            let s = train_with_threads(&g, &mut w, &cfg, 2);
            assert_eq!(w, w_oracle, "minibatch = {minibatch}");
            assert_eq!(s.bits(), s_oracle.bits(), "train");
            assert_eq!(s.examples, 90);
            assert_eq!(s.packed_bytes, 0, "nothing is gathered");
        }
    }

    /// A weight touched in shards 0 and 3 only: the first touch lands as
    /// a bitwise copy, the second adds to it — per weight exactly what
    /// the oracle's hash merge produces.
    #[test]
    fn accumulator_matches_hash_merge_for_a_weight_in_shards_0_and_3() {
        let shards: [Vec<(WeightId, f64)>; 4] = [
            vec![(WeightId(7), 2.0), (WeightId(0), 1.5), (WeightId(3), 0.1)],
            vec![(WeightId(1), 0.5), (WeightId(7), 0.125)],
            vec![(WeightId(9), -1.0), (WeightId(1), 1e-17)],
            vec![(WeightId(3), 0.2), (WeightId(64), -0.75)],
        ];
        let mut acc = GradAccumulator::new(70);
        for run in &shards {
            let (ids, gs): (Vec<WeightId>, Vec<f64>) = run.iter().copied().unzip();
            acc.add_runs(&ids, &gs);
        }
        let mut drained = Vec::new();
        acc.drain_sorted(&mut drained);

        let mut expected: Vec<(WeightId, f64)> = Vec::new();
        for &(w, g) in shards.iter().flatten() {
            match expected.iter_mut().find(|(ew, _)| *ew == w) {
                Some((_, eg)) => *eg += g,
                None => expected.push((w, g)),
            }
        }
        expected.sort_unstable_by_key(|&(w, _)| w);
        let bits = |run: &[(WeightId, f64)]| -> Vec<(WeightId, u64)> {
            run.iter().map(|&(w, g)| (w, g.to_bits())).collect()
        };
        assert_eq!(bits(&drained), bits(&expected));
        // Shard 0 then shard 3, nothing in between; one-sided entries
        // are copies.
        assert_eq!(drained[2], (WeightId(3), 0.1 + 0.2));
        assert_eq!(drained[0], (WeightId(0), 1.5));
        assert_eq!(drained[5], (WeightId(64), -0.75));
    }

    /// Draining walks the bitmap in ascending word/bit order — which is
    /// ascending weight id, across word edges — visits exactly the
    /// touched ids, and leaves bitmap and sums clean, so the next
    /// minibatch starts from `+0.0` everywhere.
    #[test]
    fn drain_visits_touched_ids_ascending_and_leaves_the_accumulator_clean() {
        for weight_count in [1usize, 63, 64, 65, 129, 200] {
            let mut acc = GradAccumulator::new(weight_count);
            // Every third id plus both sides of each word edge, fed in
            // descending order with a repeat.
            let mut ids: Vec<u32> = (0..weight_count as u32)
                .filter(|i| i % 3 == 0 || i % 64 == 63 || i % 64 == 0)
                .collect();
            ids.reverse();
            let touched: Vec<WeightId> = ids.iter().map(|&i| WeightId(i)).collect();
            let gs: Vec<f64> = ids.iter().map(|&i| f64::from(i) + 0.5).collect();
            acc.add_runs(&touched, &gs);
            acc.add_runs(&touched[..1], &[1.0]);

            let mut drained = vec![(WeightId(999), f64::NAN)];
            acc.drain_sorted(&mut drained);
            let mut expected: Vec<(WeightId, f64)> = touched.iter().copied().zip(gs).collect();
            expected[0].1 += 1.0;
            expected.reverse();
            assert_eq!(drained, expected, "weight_count = {weight_count}");
            assert!(drained.windows(2).all(|p| p[0].0 < p[1].0), "ascending ids");

            assert!(acc.touched.iter().all(|&word| word == 0), "bitmap clean");
            assert!(
                acc.sum.iter().all(|g| g.to_bits() == 0.0f64.to_bits()),
                "sums back to +0.0"
            );
            acc.drain_sorted(&mut drained);
            assert!(drained.is_empty(), "nothing left to visit");
        }
    }

    /// A wide model: `examples` three-candidate variables, `per_row` tied
    /// features per candidate row.
    fn wide_model(examples: usize, per_row: usize) -> (FactorGraph, Weights) {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = GraphBuilder::new();
        for i in 0..examples {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2), sym(3)], i % 3));
            for k in 0..3usize {
                for f in 0..per_row {
                    let w = reg.learnable((i * 7 + k * 31 + f * 3) % 501);
                    g.add_feature(v, k, w, 0.05 + ((i + k + f) % 7) as f64 * 0.11);
                }
            }
        }
        let w = reg.build_weights();
        (g.build(), w)
    }

    /// Regression (robustness): a learning rate that overflows the
    /// weights used to poison them silently. Now a non-finite minibatch
    /// gradient is never applied, it freezes the weights for the rest
    /// of the call, and every such minibatch is counted.
    #[test]
    fn diverging_learning_rate_is_counted_and_never_applied() {
        let (g, w0) = wide_model(64, 4);
        let cfg = LearnConfig {
            epochs: 3,
            learning_rate: 1e308,
            minibatch: 8,
            ..LearnConfig::default()
        };
        let mut w = w0.clone();
        let stats = train(&g, &mut w, &cfg);
        assert_eq!(stats.minibatches, 24, "every minibatch still counted");
        assert!(stats.non_finite_minibatches > 0, "divergence surfaced");
        assert!(
            (0..w.len()).all(|i| !w.get(WeightId(i as u32)).is_nan()),
            "no NaN ever reaches the weights"
        );
        let mut w_oracle = w0.clone();
        let s_oracle = oracle::train_examples(&g, &mut w_oracle, &cfg, &g.evidence_vars());
        assert_eq!(w, w_oracle, "oracle applies the same rule");
        assert_eq!(stats.bits(), s_oracle.bits(), "diverged");
        // A sane rate on the same model never trips the counter.
        let mut w = w0.clone();
        let ok = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(ok.non_finite_minibatches, 0);
    }

    /// Regression: a non-evidence `VarId` slipping into an explicit
    /// example window is filtered out (it carries no target), not a
    /// release-mode panic as `expect("evidence variable")` used to be.
    #[test]
    fn non_evidence_examples_are_filtered_not_a_panic() {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = GraphBuilder::new();
        let mut window = Vec::new();
        for i in 0..12usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, reg.learnable(i % 3), 1.0);
            window.push(v);
        }
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        g.add_feature(q, 0, reg.learnable(0), 1.0);
        window.insert(4, q);
        let g = g.build();
        let cfg = LearnConfig::default();
        let mut w = reg.build_weights();
        let stats = train_examples(&g, &mut w, &cfg, &window);
        assert_eq!(stats.examples, 12, "query var dropped");
        let mut w_clean = reg.build_weights();
        let clean: Vec<VarId> = window.iter().copied().filter(|&v| v != q).collect();
        let stats_clean = train_examples(&g, &mut w_clean, &cfg, &clean);
        assert_eq!(w, w_clean, "filtered window trains identically");
        assert_eq!(stats.minibatches, stats_clean.minibatches);
    }

    /// `grad_norm_mean` averages the final epoch's minibatch norms: with
    /// one minibatch per epoch it equals `grad_norm`.
    #[test]
    fn grad_norm_mean_reports_the_final_epoch_mean() {
        let mut g = GraphBuilder::new();
        let f = WeightId(0);
        for i in 0..10 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let g = g.build();
        let one_batch = LearnConfig {
            minibatch: 16,
            ..LearnConfig::default()
        };
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &one_batch);
        assert_eq!(stats.grad_norm_mean.to_bits(), stats.grad_norm.to_bits());
        // Several minibatches per epoch: the mean is a different (and
        // positive) statistic than the last draw.
        let many = LearnConfig {
            minibatch: 2,
            ..LearnConfig::default()
        };
        let mut w2 = Weights::zeros(1);
        let stats2 = train(&g, &mut w2, &many);
        assert!(stats2.grad_norm_mean > 0.0);
    }

    /// `minibatch = 1` applies every example's gradient immediately —
    /// classic per-example SGD — and still counts one minibatch per
    /// example.
    #[test]
    fn minibatch_one_is_per_example_sgd() {
        let mut g = GraphBuilder::new();
        let f = WeightId(0);
        for i in 0..10 {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            g.add_feature(v, 0, f, 1.0);
        }
        let g = g.build();
        let cfg = LearnConfig {
            epochs: 2,
            minibatch: 1,
            ..LearnConfig::default()
        };
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &cfg);
        assert_eq!(stats.minibatches, 20);
        // Zero treated as one.
        let cfg0 = LearnConfig {
            minibatch: 0,
            ..cfg
        };
        let mut w0 = Weights::zeros(1);
        let stats0 = train(&g, &mut w0, &cfg0);
        assert_eq!(stats0.minibatches, stats.minibatches);
        assert_eq!(w0.get(f), w.get(f));
    }

    /// `train_examples` with the graph's own evidence order is exactly
    /// `train_with_threads`; a permuted order changes the SGD trajectory.
    #[test]
    fn explicit_example_order_controls_the_trajectory() {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let mut g = GraphBuilder::new();
        for i in 0..40usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], i % 2));
            let w = reg.learnable(i % 5);
            g.add_feature(v, 0, w, 1.0 + (i % 3) as f64 * 0.5);
        }
        let g = g.build();
        let cfg = LearnConfig::default();
        let order = g.evidence_vars();
        let mut w_graph = reg.build_weights();
        let mut w_explicit = reg.build_weights();
        train_with_threads(&g, &mut w_graph, &cfg, 1);
        train_examples(&g, &mut w_explicit, &cfg, &order);
        assert_eq!(w_graph, w_explicit, "graph order == explicit graph order");

        let mut reversed: Vec<VarId> = order.clone();
        reversed.reverse();
        let mut w_rev = reg.build_weights();
        train_examples(&g, &mut w_rev, &cfg, &reversed);
        assert_ne!(w_graph, w_rev, "order is load-bearing for the trajectory");
    }

    #[test]
    fn no_evidence_is_a_noop() {
        let mut g = GraphBuilder::new();
        g.add_variable(Variable::query(vec![sym(1), sym(2)], None));
        let g = g.build();
        let mut w = Weights::zeros(1);
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 0);
        assert_eq!(stats.minibatches, 0);
        assert_eq!(w.get(WeightId(0)), 0.0);
    }

    #[test]
    fn single_candidate_evidence_skipped() {
        let mut g = GraphBuilder::new();
        g.add_variable(Variable::evidence(vec![sym(1)], 0));
        let g = g.build();
        let mut w = Weights::zeros(0);
        let stats = train(&g, &mut w, &LearnConfig::default());
        assert_eq!(stats.examples, 0);
    }
}
