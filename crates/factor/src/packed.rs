//! The packed example-major training arena and its dense-accumulator
//! SGD kernel — the hash-free, sort-free substrate of [`crate::learn`].
//!
//! Weight learning is the tax every read pays (`pipeline::run` runs it,
//! and every `FeedbackSession` and `StreamSession` read calls that), so
//! the epoch loop does no bookkeeping beyond the gradient arithmetic
//! itself: **one gather pass per training call** copies each
//! example's candidate rows into contiguous example-major buffers
//! ([`PackedArena`]), every epoch streams that memory linearly, and the
//! minibatch gradient is summed in one dense per-call accumulator that is
//! read back in weight-id order through a bitmap — no hashing, no sorting
//! and no per-shard allocation anywhere on the epoch path.
//!
//! ## Arena layout
//!
//! Per example, in example order:
//!
//! * a header — the evidence target plus prefix offsets into the row and
//!   slot arrays (`ex_rows`, `ex_slots`);
//! * flat `(local_slot, x)` feature entries (`entries`, one run per
//!   candidate row, rows delimited by the `row_entries` prefix), in
//!   exactly the design matrix's entry order;
//! * a **local weight dictionary** (`slot_weights`, `slot_fixed`): the
//!   example's distinct [`WeightId`]s mapped to small dense slots,
//!   assigned in **entry encounter order**.
//!
//! ## One minibatch
//!
//! 1. The minibatch is cut into fixed shards of
//!    `GRAD_SHARD_EXAMPLES` examples, folded in order through one
//!    `GradScratch`: each example is scored through a packed clone of the
//!    blocked 4-accumulator kernel (gathering its few weight values into a
//!    dense `wvals` buffer first) and the fused
//!    [`crate::math::softmax_in_place`], and gradient increments add into
//!    a **per-shard subtotal** per weight. A generation stamp (`tick`,
//!    bumped per shard) makes the first touch of a weight inside a shard
//!    open a fresh `+0.0` subtotal at the end of the scratch's
//!    `touched`/`grad` arrays, so those arrays end up holding the
//!    minibatch's shard runs back to back, in shard order.
//! 2. The runs are folded into the `GradAccumulator` — `sum: Vec<f64>`
//!    of `weight_count` plus a `u64` touched-bitmap — in shard order:
//!    `sum[w] += subtotal`, bit set.
//! 3. `GradAccumulator::drain_sorted` walks the bitmap's set bits in
//!    ascending word/bit order, emitting `(WeightId, gradient)` into a
//!    reused buffer and zeroing what it read. The epoch loop takes the
//!    gradient norm over that buffer, and — unless the norm is non-finite
//!    (see [`crate::learn::LearnStats::non_finite_minibatches`]) —
//!    applies the updates in the same order.
//!
//! ## Invariants
//!
//! * **Shard-order addition** — bit-for-bit the hash-map reference
//!   trainer (`learn::oracle`, test-only). The packed kernel reproduces
//!   the blocked kernel's fixed lane split per row; a shard subtotal adds
//!   gradient increments per weight in the exact entry-visit order the
//!   reference's per-shard hash accumulator does; and the accumulator
//!   adds shard subtotals per weight in shard order starting from `+0.0`
//!   — literally the reference's `*acc.entry(w).or_insert(0.0) += g`
//!   merge. The subtotals are not a schedule: summing a minibatch's
//!   increments straight into the accumulator would round differently.
//! * **First touch is a copy** — a shard subtotal is never `-0.0` (it
//!   starts at `+0.0`, and round-to-nearest never yields `-0.0` from a
//!   sum with a `+0.0` term or from an exact cancellation), so the first
//!   `+0.0 + subtotal` into a clean accumulator slot is bitwise
//!   `subtotal`. That is what makes this kernel equal to its predecessor,
//!   which merged sorted per-shard runs and *copied* one-sided entries;
//!   learned weights did not move by a bit when the sort was deleted.
//! * **Bitmap order ≡ id order** — bit `i & 63` of word `i >> 6` stands
//!   for weight `i`, so ascending words × ascending `trailing_zeros` is
//!   ascending weight id: `norm_sq` sums and weights update in exactly
//!   the sorted order the reference applies, with no sort.
//! * **Clean between minibatches** — `drain_sorted` zeroes every slot and
//!   word it visits, so each minibatch starts from an all-`+0.0`,
//!   all-clear accumulator without an `O(weight_count)` reset.
//! * **Lifetime = one training call** — arena, accumulator and scratch
//!   are built per call and never stored in the graph (the
//!   [`crate::cache::ScoreCache`] discipline), so no pack outlives the
//!   call that built it. The arena also snapshots `weights.is_fixed` per
//!   slot, safe for the same reason: fixedness never changes inside a
//!   training call.

use crate::design::DesignMatrix;
use crate::graph::{FactorGraph, VarId};
use crate::learn::LearnConfig;
use crate::math::softmax_in_place;
use crate::weights::{WeightId, Weights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::ops::Range;

/// Examples per gradient shard — the fixed unit of subtotals inside a
/// minibatch, so the default minibatch spans 16 shards. Part of the
/// addition order (see "Shard-order addition" in the module docs); the
/// test-only reference trainer cuts the same boundaries.
pub(crate) const GRAD_SHARD_EXAMPLES: usize = 8;

/// The example-major gather of a training call's eligible examples (see
/// the module docs for layout and invariants). Build with
/// [`PackedArena::pack`]; rebuilt per training call.
pub struct PackedArena {
    /// Width of the weight store — sizes the scratch's stamp arrays.
    weight_count: usize,
    /// Evidence target (candidate index) per example.
    ex_target: Vec<u32>,
    /// Prefix offsets into the row index: example `i`'s candidate rows
    /// are `ex_rows[i] .. ex_rows[i + 1]`. Length `examples + 1`.
    ex_rows: Vec<u32>,
    /// Prefix offsets into `entries` per packed row. Length `rows + 1`.
    row_entries: Vec<u32>,
    /// `(local_slot, x)` feature entries of all packed rows, in design
    /// entry order.
    entries: Vec<(u32, f64)>,
    /// Prefix offsets into the slot arrays: example `i`'s dictionary is
    /// `ex_slots[i] .. ex_slots[i + 1]`. Length `examples + 1`.
    ex_slots: Vec<u32>,
    /// Concatenated local dictionaries: global id per (example, slot).
    slot_weights: Vec<WeightId>,
    /// Fixedness snapshot per (example, slot) — lets the gradient loop
    /// skip fixed weights without touching the weight store.
    slot_fixed: Vec<bool>,
    /// Largest per-example dictionary (sizes the gather buffer).
    max_slots: usize,
    /// Largest per-example candidate count (sizes the score buffer).
    max_arity: usize,
}

impl PackedArena {
    /// Gathers `examples` (already filtered to evidence variables with
    /// more than one candidate) out of `design` into the packed layout.
    /// One linear pass; the local dictionaries are built with a
    /// generation-stamped scratch, so packing itself is hash-free too.
    pub fn pack(
        graph: &FactorGraph,
        design: &DesignMatrix,
        weights: &Weights,
        examples: &[VarId],
    ) -> PackedArena {
        let mut rows = 0usize;
        let mut nnz = 0usize;
        for &v in examples {
            let range = design.var_range(v);
            rows += range.len();
            for r in range {
                nnz += design.row(r).len();
            }
        }
        assert!(rows < u32::MAX as usize, "packed arena row overflow");
        assert!(nnz <= u32::MAX as usize, "packed arena entry overflow");

        let weight_count = weights.len();
        let mut arena = PackedArena {
            weight_count,
            ex_target: Vec::with_capacity(examples.len()),
            ex_rows: Vec::with_capacity(examples.len() + 1),
            row_entries: Vec::with_capacity(rows + 1),
            entries: Vec::with_capacity(nnz),
            ex_slots: Vec::with_capacity(examples.len() + 1),
            slot_weights: Vec::new(),
            slot_fixed: Vec::new(),
            max_slots: 0,
            max_arity: 0,
        };
        arena.ex_rows.push(0);
        arena.row_entries.push(0);
        arena.ex_slots.push(0);
        let mut stamp = vec![0u64; weight_count];
        let mut slot_of = vec![0u32; weight_count];
        let mut tick = 0u64;
        for &v in examples {
            let Some(target) = graph.var(v).evidence else {
                // The eligibility filter in `learn` guarantees this is
                // unreachable; keep the pack total-order consistent with
                // the naive oracle (which also skips) if it ever isn't.
                debug_assert!(
                    false,
                    "non-evidence variable {v:?} reached the packed arena"
                );
                continue;
            };
            tick += 1;
            let slot_base = arena.slot_weights.len();
            for r in design.var_range(v) {
                for &(w, x) in design.row(r) {
                    let wi = w.index();
                    let slot = if stamp[wi] == tick {
                        slot_of[wi]
                    } else {
                        stamp[wi] = tick;
                        let s = (arena.slot_weights.len() - slot_base) as u32;
                        slot_of[wi] = s;
                        arena.slot_weights.push(w);
                        arena.slot_fixed.push(weights.is_fixed(w));
                        s
                    };
                    arena.entries.push((slot, x));
                }
                arena.row_entries.push(arena.entries.len() as u32);
            }
            arena.ex_rows.push((arena.row_entries.len() - 1) as u32);
            arena.ex_slots.push(arena.slot_weights.len() as u32);
            arena.ex_target.push(target as u32);
            arena.max_slots = arena.max_slots.max(arena.slot_weights.len() - slot_base);
            arena.max_arity = arena.max_arity.max(
                arena.ex_rows[arena.ex_rows.len() - 1] as usize
                    - arena.ex_rows[arena.ex_rows.len() - 2] as usize,
            );
        }
        arena
    }

    /// Number of packed examples.
    pub fn examples(&self) -> usize {
        self.ex_target.len()
    }

    /// Total packed feature entries across all examples.
    pub fn packed_entries(&self) -> usize {
        self.entries.len()
    }

    /// Resident bytes of the packed buffers (the `LearnStats` counter).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.ex_target.len() * size_of::<u32>()
            + self.ex_rows.len() * size_of::<u32>()
            + self.row_entries.len() * size_of::<u32>()
            + self.entries.len() * size_of::<(u32, f64)>()
            + self.ex_slots.len() * size_of::<u32>()
            + self.slot_weights.len() * size_of::<WeightId>()
            + self.slot_fixed.len() * size_of::<bool>()
    }

    /// Packed-row range of example `i`.
    #[inline]
    fn row_range(&self, i: usize) -> Range<usize> {
        self.ex_rows[i] as usize..self.ex_rows[i + 1] as usize
    }

    /// Dictionary-slot range of example `i`.
    #[inline]
    fn slot_range(&self, i: usize) -> Range<usize> {
        self.ex_slots[i] as usize..self.ex_slots[i + 1] as usize
    }

    /// The `(local_slot, x)` entries of packed row `r`.
    #[inline]
    fn row(&self, r: usize) -> &[(u32, f64)] {
        &self.entries[self.row_entries[r] as usize..self.row_entries[r + 1] as usize]
    }
}

/// What one epoch loop reports back to `learn`'s stats assembly.
#[derive(Default)]
pub(crate) struct EpochOutcome {
    /// `Σ log P(target)` of the final epoch, divided by the example
    /// count by the caller.
    pub ll_sum: f64,
    pub minibatches: usize,
    pub grad_norm: f64,
    pub grad_norm_mean: f64,
    pub non_finite_minibatches: usize,
}

/// Reusable scratch of the packed gradient fold. `touched` / `grad`
/// collect one minibatch's shard runs back to back (cleared by
/// [`GradScratch::begin_minibatch`]); the generation stamp (`tick`,
/// bumped per shard) opens a fresh subtotal for the first touch of a
/// weight inside each shard, so a shard's run never depends on what
/// earlier shards left behind.
struct GradScratch {
    /// Gathered weight values of the current example's dictionary.
    wvals: Vec<f64>,
    /// Candidate scores of the current example.
    scores: Vec<f64>,
    /// Generation stamp per global weight id (shard dictionary).
    stamp: Vec<u64>,
    /// Index into `grad` of the current shard's subtotal per stamped id.
    slot_of: Vec<u32>,
    /// Shard subtotals, one per `(shard, touched weight)`, shard runs
    /// back to back in shard order.
    grad: Vec<f64>,
    /// Global id per `grad` entry, in first-touch order within a shard.
    touched: Vec<WeightId>,
    /// Current shard generation.
    tick: u64,
}

impl GradScratch {
    fn new(arena: &PackedArena) -> Self {
        GradScratch {
            wvals: Vec::with_capacity(arena.max_slots),
            scores: Vec::with_capacity(arena.max_arity),
            stamp: vec![0u64; arena.weight_count],
            slot_of: vec![0u32; arena.weight_count],
            grad: Vec::new(),
            touched: Vec::new(),
            tick: 0,
        }
    }

    /// Drops the previous minibatch's shard runs.
    fn begin_minibatch(&mut self) {
        self.grad.clear();
        self.touched.clear();
    }
}

/// The dense per-training-call minibatch gradient accumulator: one `f64`
/// per weight plus a touched-bitmap (bit `i & 63` of word `i >> 6` =
/// weight `i`). All-`+0.0` and all-clear between minibatches. See the
/// module docs for why adding into it reproduces the reference merge and
/// why draining it needs no sort.
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

/// The packed clone of [`crate::design::score_features`]: identical
/// fixed lane split (exact chunks of four into four accumulators,
/// sequential tail, pairwise reduction), indexing the gathered `wvals`
/// instead of the weight store — so a packed row scores bit-for-bit the
/// design row it was gathered from.
#[inline]
fn score_packed(entries: &[(u32, f64)], wvals: &[f64]) -> f64 {
    let mut chunks = entries.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for c in &mut chunks {
        a0 += wvals[c[0].0 as usize] * c[0].1;
        a1 += wvals[c[1].0 as usize] * c[1].1;
        a2 += wvals[c[2].0 as usize] * c[2].1;
        a3 += wvals[c[3].0 as usize] * c[3].1;
    }
    let mut tail = 0.0f64;
    for &(slot, x) in chunks.remainder() {
        tail += wvals[slot as usize] * x;
    }
    ((a0 + a1) + (a2 + a3)) + tail
}

/// Folds one shard: appends its run of per-weight subtotals to the
/// scratch's `touched`/`grad` arrays and returns the shard's
/// log-likelihood sum. Increments accumulate per weight in entry-visit
/// order across the whole shard — the reference hash accumulator's exact
/// addition sequence.
fn shard_gradient(
    arena: &PackedArena,
    weights: &Weights,
    l2: f64,
    scratch: &mut GradScratch,
    shard: &[u32],
) -> f64 {
    scratch.tick += 1;
    let mut ll = 0.0;
    for &ei in shard {
        let ei = ei as usize;
        let slots = arena.slot_range(ei);
        scratch.wvals.clear();
        for &w in &arena.slot_weights[slots.clone()] {
            scratch.wvals.push(weights.get(w));
        }
        let rows = arena.row_range(ei);
        scratch.scores.clear();
        for r in rows.clone() {
            let s = score_packed(arena.row(r), &scratch.wvals);
            scratch.scores.push(s);
        }
        softmax_in_place(&mut scratch.scores);
        let target = arena.ex_target[ei] as usize;
        ll += scratch.scores[target].max(1e-300).ln();
        for (k, r) in rows.enumerate() {
            let p_k = scratch.scores[k];
            let residual = f64::from(u8::from(k == target)) - p_k;
            if residual == 0.0 {
                continue;
            }
            for &(slot, x) in arena.row(r) {
                let gslot = slots.start + slot as usize;
                if arena.slot_fixed[gslot] {
                    continue;
                }
                let w = arena.slot_weights[gslot];
                let wi = w.index();
                if scratch.stamp[wi] != scratch.tick {
                    scratch.stamp[wi] = scratch.tick;
                    scratch.slot_of[wi] = scratch.grad.len() as u32;
                    scratch.touched.push(w);
                    scratch.grad.push(0.0);
                }
                let g = scratch.slot_of[wi] as usize;
                scratch.grad[g] += x * residual - l2 * scratch.wvals[slot as usize];
            }
        }
    }
    ll
}

/// The packed epoch loop: seed-fixed shuffles over arena indices (same
/// RNG draws as the reference loop's `VarId` shuffle — the stub's
/// `shuffle` depends only on slice length), minibatch chunks folded in
/// fixed shards through one scratch, shard runs summed in the dense
/// accumulator, and the gradient applied in weight-id order off its
/// bitmap. A minibatch whose gradient norm is non-finite is counted
/// and **not** applied, and no later minibatch is applied either (see
/// "Divergence" in [`crate::learn`]).
pub(crate) fn run_epochs(
    arena: &PackedArena,
    weights: &mut Weights,
    config: &LearnConfig,
    rng: &mut StdRng,
) -> EpochOutcome {
    let batch = config.minibatch.max(1);
    let mut order: Vec<u32> = (0..arena.examples() as u32).collect();
    let mut scratch = GradScratch::new(arena);
    let mut acc = GradAccumulator::new(arena.weight_count);
    let mut grad: Vec<(WeightId, f64)> = Vec::new();
    let mut lr = config.learning_rate;
    let mut out = EpochOutcome::default();
    for _epoch in 0..config.epochs {
        order.shuffle(rng);
        let mut ll_sum = 0.0;
        let mut norm_sum = 0.0;
        let mut epoch_minibatches = 0usize;
        for minibatch in order.chunks(batch) {
            scratch.begin_minibatch();
            let frozen: &Weights = weights;
            let Some(ll) = minibatch
                .chunks(GRAD_SHARD_EXAMPLES)
                .map(|shard| shard_gradient(arena, frozen, config.l2, &mut scratch, shard))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::score_features;
    use crate::graph::{GraphBuilder, Variable};
    use crate::weights::FeatureRegistry;
    use holo_dataset::Sym;

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// A small graph with tied weights across examples, one fixed prior,
    /// and irregular per-row entry counts (to exercise the kernel tail).
    fn tied_model() -> (FactorGraph, Weights, Vec<VarId>) {
        let mut reg: FeatureRegistry<usize> = FeatureRegistry::new();
        let prior = reg.fixed(999, 1.5);
        let mut g = GraphBuilder::new();
        let mut vars = Vec::new();
        for i in 0..9usize {
            let v = g.add_variable(Variable::evidence(vec![sym(1), sym(2), sym(3)], i % 3));
            for k in 0..3usize {
                for f in 0..(1 + (i + k) % 5) {
                    let w = reg.learnable((i + k + f) % 6);
                    g.add_feature(v, k, w, 0.25 + f as f64 * 0.5);
                }
            }
            g.add_feature(v, i % 3, prior, 1.0);
            vars.push(v);
        }
        let w = reg.build_weights();
        (g.build(), w, vars)
    }

    #[test]
    fn pack_mirrors_the_design_rows() {
        let (g, w, vars) = tied_model();
        let design = g.design();
        let arena = PackedArena::pack(&g, design, &w, &vars);
        assert_eq!(arena.examples(), vars.len());
        assert_eq!(arena.packed_entries(), design.nnz());
        assert!(arena.bytes() > 0);
        let mut wvals = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            // Local dictionary holds distinct ids in encounter order and
            // gathers back to the design rows entry for entry.
            let slots = arena.slot_range(i);
            let dict = &arena.slot_weights[slots.clone()];
            let mut seen = dict.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), dict.len(), "dictionary ids are distinct");
            wvals.clear();
            wvals.extend(dict.iter().map(|&id| w.get(id)));
            for (pr, dr) in arena.row_range(i).zip(design.var_range(v)) {
                let packed_row = arena.row(pr);
                let design_row = design.row(dr);
                assert_eq!(packed_row.len(), design_row.len());
                for (&(slot, x), &(id, dx)) in packed_row.iter().zip(design_row) {
                    assert_eq!(dict[slot as usize], id, "slot resolves to the design id");
                    assert_eq!(x, dx);
                    assert_eq!(
                        arena.slot_fixed[slots.start + slot as usize],
                        w.is_fixed(id)
                    );
                }
                // The packed kernel scores the gathered row bit-for-bit
                // like the blocked kernel scores the design row.
                assert_eq!(
                    score_packed(packed_row, &wvals).to_bits(),
                    score_features(design_row, &w).to_bits()
                );
            }
        }
    }

    /// A weight touched in shards 0 and 3 only: the first touch lands as
    /// a bitwise copy, the second adds to it — per weight exactly what
    /// the hash merge (and the sorted-run merge this accumulator
    /// replaced, which copied one-sided entries) produces.
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

    #[test]
    fn empty_example_list_packs_empty() {
        let (g, w, _) = tied_model();
        let arena = PackedArena::pack(&g, g.design(), &w, &[]);
        assert_eq!(arena.examples(), 0);
        assert_eq!(arena.packed_entries(), 0);
    }
}
