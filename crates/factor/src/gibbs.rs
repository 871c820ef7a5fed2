//! Gibbs sampling over the factor graph.
//!
//! Single-site Gibbs: sweep over the query variables, resampling each from
//! its conditional given the rest. With clique factors present this is the
//! approximate-inference path of the paper; the §5.2 relaxation removes all
//! cliques, making variables independent, in which case every conditional
//! *is* the marginal and the sampler trivially mixes in `O(n log n)` sweeps
//! — matching the theory the paper cites [21, 36].
//!
//! One sampler is one chain.
//! [`infer_partitioned`](crate::components::infer_partitioned) runs one
//! per sampled component, seeded from the component's rank; the
//! parallelism lives in the component decomposition, not in extra chains.
//!
//! ## Chromatic sweeps
//!
//! [`GibbsSampler::with_chromatic`] swaps the sequential sweep for a
//! *chromatic* one driven by a proper [`Coloring`] of the
//! variable-interaction graph: same-color variables never share a clique,
//! so each of their conditionals is independent of the others' current
//! values, and an entire color class can resample **in parallel against
//! the immutable pre-class state snapshot** — the within-component
//! parallelism one giant component otherwise forfeits. A chromatic sweep
//! visits colors in fixed ascending order; within a color, the class is
//! cut into fixed-size blocks (independent of the thread count), each
//! block draws from its own RNG seeded by
//! `color_block_seed(seed, sweep · blocks_per_sweep + block)` — a second
//! mixer tier below the component seed — and the sampled
//! values are written back only after the whole class finished. Blocks run
//! over [`holo_parallel::parallel_chunks_mut`], each writing its own fixed
//! chunk of the class output, so **any thread count is bit-for-bit
//! `threads = 1`**. A query
//! set spanning a single color (every clique-free component) keeps no
//! plan and runs today's sequential sweep, RNG draw for RNG draw.
//!
//! ## The frozen-weight score cache
//!
//! Weights never move during sampling, so a sampler can be armed with a
//! [`ScoreCache`] ([`GibbsSampler::with_score_cache`]): the conditional's
//! unary term becomes a memcpy of the variable's cached row range instead
//! of a kernel walk over the design matrix, while clique deltas are still
//! re-evaluated against the live state. The cache holds exactly the bytes
//! [`DesignMatrix::score_var_into`](crate::design::DesignMatrix::score_var_into)
//! would produce, so sampling streams — and therefore marginals — are
//! byte-identical with the cache on or off. **Freshness invariant:** a
//! cache is built per
//! [`infer_partitioned`](crate::components::infer_partitioned) call and
//! borrows the design matrix it scored; it is never stored in
//! [`FactorGraph`], so a feedback retrain (new weights, patched matrix)
//! cannot leak stale scores into the next inference pass.
//!
//! ## Compiled clique programs
//!
//! The clique half of the conditional is not interpreted per sample. A
//! sampler compiles, once at construction, one flat *entry* per (query
//! variable `v`, adjacent clique) pair, in `cliques_of(v)` order:
//!
//! * **Layout.** Two contiguous arenas plus a per-variable start table.
//!   An entry holds the resolved penalty `-θ` and two predicate counts;
//!   its predicates sit back to back in the predicate arena, *guards*
//!   first, then *owns*. Every operand is pre-resolved to the candidate
//!   being scored (`Me` — the first slot `v` occupies in the clique), a
//!   frozen constant, or the global index of another variable, read from
//!   the sampler-owned current-symbol array (kept in step with the state
//!   vector, so no `domain[state[u]]` double load happens per sample).
//! * **Guard/own split.** A guard is a predicate that does not mention
//!   `Me`: it is evaluated once per resample, and one false guard skips
//!   the clique for every candidate. An own predicate mentions `Me` and
//!   is the only thing evaluated per candidate. A denial constraint is a
//!   conjunction, so the order predicates are tested in cannot change
//!   whether it fires.
//! * **Addition order.** Entries are walked in adjacency order and a
//!   firing entry adds exactly `-θ` to its candidate, so every candidate
//!   receives the non-zero addends of the interpreted loop
//!   (`CliqueFactor::score` per clique per candidate) in the same order.
//! * **Zero addends.** The interpreted loop also adds `+0.0` for every
//!   clique that does not fire; the program skips those. `x + 0.0` is `x`
//!   for every `x` but `-0.0`, so a score can differ from the interpreted
//!   one only in the sign of a zero, which the max-shifted softmax erases
//!   (`±0.0 - max` and `x - ±0.0` exponentiate to the same bits). The
//!   post-softmax conditional is therefore bit-for-bit the interpreted
//!   one — proptested against the `#[cfg(test)]` interpreter over every
//!   operator, null symbols and repeated variables.
//! * **Lifetime.** The program belongs to the sampler: built by
//!   [`GibbsSampler::for_query`] over exactly the sampler's query set,
//!   read by the sequential sweep and the chromatic blocks, dropped with
//!   the sampler (so with the component, under partitioned inference).
//!   Weights are frozen while a sampler lives, which is what makes
//!   resolving `-θ` at build sound.

use crate::cache::ScoreCache;
use crate::coloring::Coloring;
use crate::graph::{CmpOp, FactorGraph, FactorOperand, ValueContext, VarId, Variable};
use crate::marginals::Marginals;
use crate::math::{sample_categorical, softmax_in_place};
use crate::weights::Weights;
use holo_dataset::Sym;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Sampler configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GibbsConfig {
    /// Sweeps discarded before collecting statistics.
    pub burn_in: usize,
    /// Sweeps whose states are counted into the marginals.
    pub samples: usize,
    /// RNG seed — the sampler is fully deterministic given the seed.
    pub seed: u64,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            burn_in: 20,
            samples: 100,
            seed: 0x5eed,
        }
    }
}

/// Seed of one color-sweep block: the second tier of the seed hierarchy
/// (component rank → block), mixing the sampler's seed with the block's
/// global index `sweep · blocks_per_sweep + block_rank`. Uses a finalizer
/// distinct from the component tier's (degski64 constants) and — unlike
/// it — **no identity shortcut at index 0**: block 0 must not reuse the
/// sampler seed verbatim, or its draws would replay the stream the
/// sequential path would have consumed (chromatic multi-color output is a
/// deliberately different sampling schedule, not a reordering of the
/// sequential one).
pub(crate) fn color_block_seed(seed: u64, block_index: u64) -> u64 {
    let mut z = seed ^ block_index.wrapping_mul(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// Fixed block length a color class is cut into for parallel resampling.
/// The cut depends only on the class size — never on the thread count —
/// which is what makes chromatic sweeps thread-count invariant. 64 matches
/// [`holo_parallel::MIN_PARALLEL_ITEMS`]: one block amortises a thread
/// hop.
const COLOR_BLOCK_SIZE: usize = 64;

/// The precomputed schedule of a chromatic sweep over one sampler's query
/// set: the query variables regrouped into color classes, each class cut
/// into fixed blocks.
struct ChromaticPlan {
    /// Positions into the sampler's query list reordered by `(color, id)`
    /// — one contiguous run per color class, classes in ascending color
    /// order.
    order: Vec<usize>,
    /// One entry per color class present in the query set.
    runs: Vec<ColorRun>,
    /// Total blocks per sweep, for per-sweep seed derivation.
    blocks_per_sweep: u64,
}

/// One color class inside a [`ChromaticPlan`].
struct ColorRun {
    /// Start of the class in [`ChromaticPlan::order`].
    start: usize,
    /// Class length.
    len: usize,
    /// Global block index of the class's first block within a sweep.
    block_base: u64,
}

/// Builds the chromatic schedule for `query` (sorted variable ids), or
/// `None` when the set spans at most one color — in which case the
/// sequential sweep is both correct and exactly reproduces the historical
/// sampling stream.
fn build_plan(coloring: &Coloring, query: &[VarId]) -> Option<ChromaticPlan> {
    if query.len() < 2 {
        return None;
    }
    // `query` is sorted by id, so a stable sort of positions by color is
    // the `(color, id)` order.
    let color_at = |i: usize| coloring.color_of(query[i]);
    let mut order: Vec<usize> = (0..query.len()).collect();
    order.sort_by_key(|&i| color_at(i));
    let mut runs: Vec<ColorRun> = Vec::new();
    let mut blocks = 0u64;
    let mut start = 0usize;
    while start < order.len() {
        let color = color_at(order[start]);
        let mut end = start + 1;
        while end < order.len() && color_at(order[end]) == color {
            end += 1;
        }
        runs.push(ColorRun {
            start,
            len: end - start,
            block_base: blocks,
        });
        blocks += ((end - start) as u64).div_ceil(COLOR_BLOCK_SIZE as u64);
        start = end;
    }
    if runs.len() <= 1 {
        return None;
    }
    Some(ChromaticPlan {
        order,
        runs,
        blocks_per_sweep: blocks,
    })
}

/// Per-sweep parallel block count a chromatic sampler over `query` would
/// schedule — 0 when the set is single-color (sequential path). The
/// routing stats of partitioned inference report the sum of this over its
/// Gibbs components.
pub(crate) fn chromatic_sweep_blocks(coloring: &Coloring, query: &[VarId]) -> u64 {
    build_plan(coloring, query).map_or(0, |plan| plan.blocks_per_sweep)
}

/// The candidate a variable starts at: its evidence, else its
/// initial value, else candidate 0.
fn initial_candidate(var: &Variable) -> usize {
    var.evidence.or(var.init).unwrap_or(0)
}

/// Turns raw per-candidate sample counts into marginals in place: evidence
/// variables get a point mass, sampled query variables normalise, and
/// never-sampled variables fall back to uniform.
fn normalize_counts(graph: &FactorGraph, counts: &mut [Vec<f64>]) {
    for (i, var) in graph.vars().iter().enumerate() {
        match var.evidence {
            Some(k) => {
                counts[i].iter_mut().for_each(|c| *c = 0.0);
                counts[i][k] = 1.0;
            }
            None => {
                let total: f64 = counts[i].iter().sum();
                if total > 0.0 {
                    counts[i].iter_mut().for_each(|c| *c /= total);
                } else {
                    // Unreached query var (no sampling sweeps): uniform.
                    let n = counts[i].len().max(1);
                    counts[i].iter_mut().for_each(|c| *c = 1.0 / n as f64);
                }
            }
        }
    }
}

/// One pre-resolved operand of a compiled clique predicate.
#[derive(Clone, Copy)]
enum Operand {
    /// The candidate being scored for the variable under resample.
    Me,
    /// A constant frozen at grounding.
    Const(Sym),
    /// The current symbol of another variable, by global variable index.
    Var(u32),
}

/// One clique predicate with both operands pre-resolved.
struct Pred {
    lhs: Operand,
    op: CmpOp,
    rhs: Operand,
}

impl Pred {
    /// Whether the predicate reads the candidate (own) or only the rest
    /// of the state (guard).
    fn is_own(&self) -> bool {
        matches!(self.lhs, Operand::Me) || matches!(self.rhs, Operand::Me)
    }

    /// Evaluates the predicate for candidate `me`, every other variable
    /// at its symbol in `syms`.
    #[inline]
    fn holds(&self, me: Sym, syms: &[Sym], ctx: &impl ValueContext) -> bool {
        let resolve = |o: Operand| match o {
            Operand::Me => me,
            Operand::Const(sym) => sym,
            Operand::Var(u) => syms[u as usize],
        };
        let (a, b) = (resolve(self.lhs), resolve(self.rhs));
        // Equality — all a denial constraint over categorical cells
        // usually uses — is decided inline; the operators that consult
        // the value context are called out of line, which keeps the sweep's
        // inner loops a two-way branch over a few registers (the whole
        // 1000-row hospital DC-factor repair at one thread: 0.29 s, against
        // 0.35 s with the seven-way `CmpOp::holds` inlined here).
        match self.op {
            CmpOp::Eq => CmpOp::Eq.holds(a, b, ctx),
            CmpOp::Neq => CmpOp::Neq.holds(a, b, ctx),
            op => holds_in_context(op, a, b, ctx),
        }
    }
}

/// [`CmpOp::holds`] kept out of line — see [`Pred::holds`].
#[inline(never)]
fn holds_in_context(op: CmpOp, a: Sym, b: Sym, ctx: &impl ValueContext) -> bool {
    op.holds(a, b, ctx)
}

/// One (query variable, adjacent clique) pair of a [`CliqueProgram`]. Its
/// `guards + owns` predicates are contiguous in the predicate arena.
struct Entry {
    /// `-θ`, added to every candidate the clique fires on.
    penalty: f64,
    guards: u32,
    owns: u32,
}

/// The clique half of every conditional of one sampler, compiled once
/// (see "Compiled clique programs" in the module docs).
struct CliqueProgram {
    /// `starts[i]` = (first entry, first predicate) of the sampler's
    /// `i`-th query variable; one trailing sentinel.
    starts: Vec<(usize, usize)>,
    entries: Vec<Entry>,
    preds: Vec<Pred>,
}

impl CliqueProgram {
    fn build(graph: &FactorGraph, weights: &Weights, query: &[VarId]) -> Self {
        // Sized exactly up front: the arenas are the sampler's largest
        // allocation, and growing them by doubling would copy them twice.
        let adjacent = || {
            query
                .iter()
                .flat_map(|&v| graph.cliques_of(v))
                .map(|&ci| &graph.cliques()[ci as usize])
        };
        let mut program = CliqueProgram {
            starts: Vec::with_capacity(query.len() + 1),
            entries: Vec::with_capacity(adjacent().count()),
            preds: Vec::with_capacity(adjacent().map(|c| c.predicates.len()).sum()),
        };
        for &v in query {
            program
                .starts
                .push((program.entries.len(), program.preds.len()));
            for &ci in graph.cliques_of(v) {
                let clique = &graph.cliques()[ci as usize];
                // `v` is `Me` in the first slot it occupies; a repeat of
                // `v` in a later slot reads its current symbol, like any
                // other member.
                let me = clique.vars.iter().position(|&u| u == v);
                debug_assert!(me.is_some(), "adjacency list inconsistent");
                let resolve = |o: FactorOperand| match o {
                    FactorOperand::Const(sym) => Operand::Const(sym),
                    FactorOperand::Var(slot) if Some(slot as usize) == me => Operand::Me,
                    FactorOperand::Var(slot) => Operand::Var(clique.vars[slot as usize].0),
                };
                let compiled = clique.predicates.iter().map(|p| Pred {
                    lhs: resolve(p.lhs),
                    op: p.op,
                    rhs: resolve(p.rhs),
                });
                let first = program.preds.len();
                program
                    .preds
                    .extend(compiled.clone().filter(|p| !p.is_own()));
                let guards = program.preds.len() - first;
                program.preds.extend(compiled.filter(Pred::is_own));
                program.entries.push(Entry {
                    penalty: -weights.get(clique.weight),
                    guards: guards as u32,
                    owns: (program.preds.len() - first - guards) as u32,
                });
            }
        }
        program
            .starts
            .push((program.entries.len(), program.preds.len()));
        program
    }

    /// Adds the clique terms of query variable `i` (candidates `domain`)
    /// to `scores`, every other variable at its symbol in `syms`.
    fn add_clique_terms(
        &self,
        i: usize,
        domain: &[Sym],
        syms: &[Sym],
        ctx: &impl ValueContext,
        scores: &mut [f64],
    ) {
        let (first, mut at) = self.starts[i];
        for entry in &self.entries[first..self.starts[i + 1].0] {
            let (guards, rest) = self.preds[at..].split_at(entry.guards as usize);
            let owns = &rest[..entry.owns as usize];
            at += guards.len() + owns.len();
            // A guard never reads the candidate; any symbol stands in.
            if !guards.iter().all(|p| p.holds(Sym::NULL, syms, ctx)) {
                continue;
            }
            for (score, &me) in scores.iter_mut().zip(domain) {
                if owns.iter().all(|p| p.holds(me, syms, ctx)) {
                    *score += entry.penalty;
                }
            }
        }
    }
}

/// The interpreted conditional the compiled program replaced, kept as the
/// test reference: unary scores, then `CliqueFactor::score` per adjacent
/// clique per candidate with every other member at its state.
#[cfg(test)]
pub(crate) fn conditional_scores_into<C: ValueContext>(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &C,
    cache: Option<&ScoreCache>,
    state: &[usize],
    v: VarId,
    scores: &mut Vec<f64>,
) {
    match cache {
        Some(c) => c.copy_var_scores_into(v, scores),
        None => graph.design().score_var_into(v, weights, scores),
    }
    let mut clique_syms: Vec<Sym> = Vec::new();
    for &ci in graph.cliques_of(v) {
        let clique = &graph.cliques()[ci as usize];
        let slot = clique
            .vars
            .iter()
            .position(|&u| u == v)
            .expect("adjacency list inconsistent");
        clique_syms.clear();
        for &u in &clique.vars {
            clique_syms.push(graph.var(u).domain[state[u.index()]]);
        }
        for (k, score) in scores.iter_mut().enumerate() {
            clique_syms[slot] = graph.var(v).domain[k];
            *score += clique.score(&clique_syms, weights, ctx);
        }
    }
}

/// The sampler. Owns its state vector; borrowed graph/weights/context.
pub struct GibbsSampler<'a, C: ValueContext> {
    graph: &'a FactorGraph,
    weights: &'a Weights,
    ctx: &'a C,
    /// Current candidate index of every variable (evidence pinned).
    state: Vec<usize>,
    /// Current symbol of every variable: `domain[state]`, kept in step
    /// with `state` — what the compiled program's `Var` operands read.
    syms: Vec<Sym>,
    query: Vec<VarId>,
    /// The compiled clique terms of `query`'s conditionals.
    program: CliqueProgram,
    rng: StdRng,
    /// Scratch buffer for conditional scores (sequential sweeps; chromatic
    /// blocks carry their own per-block scratch).
    scores: Vec<f64>,
    /// Sampled candidate indices of the color class being resampled —
    /// sampler-owned so chromatic sweeps reuse one allocation across
    /// classes and sweeps instead of collecting fresh per-block `Vec`s.
    class_vals: Vec<usize>,
    /// Frozen-weight unary scores; armed per inference pass (see the
    /// module docs), `None` walks the design matrix per resample.
    cache: Option<&'a ScoreCache<'a>>,
    /// Chromatic sweep schedule; `None` runs the sequential sweep.
    plan: Option<ChromaticPlan>,
    /// Worker threads chromatic sweeps may spawn (a schedule knob only:
    /// any value is bit-for-bit `1`).
    threads: usize,
    /// The sampler's seed, re-mixed per color block by [`color_block_seed`].
    base_seed: u64,
    /// Sweeps performed so far — the per-sweep component of chromatic
    /// block seeds.
    sweep_no: u64,
}

impl<'a, C: ValueContext + Sync> GibbsSampler<'a, C> {
    /// Initialises state: evidence at its observed candidate, query
    /// variables at their initial value (or candidate 0).
    pub fn new(graph: &'a FactorGraph, weights: &'a Weights, ctx: &'a C, seed: u64) -> Self {
        Self::for_query(graph, weights, ctx, seed, graph.query_vars())
    }

    /// A sampler whose sweeps touch only `query` (a subset of the graph's
    /// query variables, in ascending id order) — the per-component sampler
    /// of [`crate::components::infer_partitioned`]. All other variables
    /// stay pinned at their initial state; that is sound exactly when no
    /// clique couples `query` to an outside *query* variable, which the
    /// component decomposition guarantees. With `query` equal to the full
    /// query set this is [`GibbsSampler::new`].
    pub fn for_query(
        graph: &'a FactorGraph,
        weights: &'a Weights,
        ctx: &'a C,
        seed: u64,
        query: Vec<VarId>,
    ) -> Self {
        debug_assert!(query.iter().all(|&v| graph.var(v).is_query()));
        debug_assert!(query.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let state: Vec<usize> = graph.vars().iter().map(initial_candidate).collect();
        let syms = graph
            .vars()
            .iter()
            .zip(&state)
            .map(|(var, &k)| var.domain[k])
            .collect();
        GibbsSampler {
            graph,
            weights,
            ctx,
            state,
            syms,
            program: CliqueProgram::build(graph, weights, &query),
            query,
            rng: StdRng::seed_from_u64(seed),
            scores: Vec::new(),
            class_vals: Vec::new(),
            cache: None,
            plan: None,
            threads: 1,
            base_seed: seed,
            sweep_no: 0,
        }
    }

    /// Switches the sampler to chromatic sweeps under `coloring` (which
    /// must be proper for this graph — use
    /// [`FactorGraph::coloring`](crate::graph::FactorGraph::coloring)),
    /// parallelising color classes over up to `threads` OS threads. When
    /// the query set spans at most one color the sampler keeps the
    /// sequential sweep — bit-for-bit the non-chromatic sampler — so
    /// clique-free components are entirely unaffected by the switch.
    pub fn with_chromatic(mut self, coloring: &Coloring, threads: usize) -> Self {
        self.plan = build_plan(coloring, &self.query);
        self.threads = threads.max(1);
        self
    }

    /// Arms the frozen-weight score cache: conditionals start from a
    /// memcpy of `cache`'s row range instead of re-running the design
    /// kernel. The cache must have been built against this sampler's
    /// design matrix and weight vector (which
    /// [`crate::components::infer_partitioned`] guarantees by building one
    /// per call); the sampling stream is byte-identical with or without
    /// it — the knob trades wall-clock only, never output.
    pub fn with_score_cache(mut self, cache: &'a ScoreCache<'a>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Moves `v` to candidate `k`, keeping the symbol array in step.
    #[inline]
    fn assign(&mut self, v: VarId, k: usize) {
        self.state[v.index()] = k;
        self.syms[v.index()] = self.graph.var(v).domain[k];
    }

    /// Conditional log-scores of every candidate of the `i`-th query
    /// variable given the rest, into `scores`: the unary terms (a memcpy
    /// of the cached row range when a [`ScoreCache`] is armed, a kernel
    /// walk over the design matrix otherwise — identical bytes), then the
    /// compiled clique terms against the current symbols. `&self`, so the
    /// sequential sweep (sampler-owned scratch) and chromatic blocks
    /// (per-block scratch against the pre-class symbols) share it.
    fn conditional_into(&self, i: usize, scores: &mut Vec<f64>) {
        let v = self.query[i];
        match self.cache {
            Some(c) => c.copy_var_scores_into(v, scores),
            None => self.graph.design().score_var_into(v, self.weights, scores),
        }
        let domain = &self.graph.var(v).domain;
        self.program
            .add_clique_terms(i, domain, &self.syms, self.ctx, scores);
    }

    /// One full sweep over the query variables: sequential single-site
    /// updates, or fixed-order color-class updates when a chromatic plan
    /// is armed (see the module docs).
    fn sweep(&mut self) {
        // The schedule is taken out of `self` for the sweep so the block
        // closures can read the sampler while the plan is walked.
        if let Some(plan) = self.plan.take() {
            self.sweep_chromatic(&plan);
            self.plan = Some(plan);
            return;
        }
        let mut scores = std::mem::take(&mut self.scores);
        for i in 0..self.query.len() {
            self.conditional_into(i, &mut scores);
            softmax_in_place(&mut scores);
            let u: f64 = self.rng.gen();
            self.assign(self.query[i], sample_categorical(&scores, u));
        }
        self.scores = scores;
    }

    /// One chromatic sweep: colors in ascending order; within a color,
    /// fixed blocks resample in parallel against the pre-class state and
    /// write back after the class completes. Deterministic at any thread
    /// count — block boundaries and block seeds depend only on the plan
    /// and the sweep number, and [`holo_parallel::parallel_chunks_mut`]
    /// gives each block its own fixed output chunk.
    fn sweep_chromatic(&mut self, plan: &ChromaticPlan) {
        // Sampler-owned class output buffer, reused across classes and
        // sweeps (taken out of `self` so the fill closure can read the
        // sampler while writing into it).
        let mut class_vals = std::mem::take(&mut self.class_vals);
        let sweep_base = self.sweep_no.wrapping_mul(plan.blocks_per_sweep);
        for run in &plan.runs {
            let class = &plan.order[run.start..run.start + run.len];
            class_vals.clear();
            class_vals.resize(class.len(), 0);
            // Fixed COLOR_BLOCK_SIZE output chunks, one seeded job each —
            // the same block boundaries and seeds as the old collect-based
            // schedule, now writing in place.
            holo_parallel::parallel_chunks_mut(
                self.threads,
                &mut class_vals,
                COLOR_BLOCK_SIZE,
                |b, out| {
                    let seed =
                        color_block_seed(self.base_seed, sweep_base + run.block_base + b as u64);
                    let mut rng = StdRng::seed_from_u64(seed);
                    // Per-block scratch: allocated once per block, reused
                    // across the block's variables.
                    let mut scores: Vec<f64> = Vec::new();
                    let block = &class[b * COLOR_BLOCK_SIZE..b * COLOR_BLOCK_SIZE + out.len()];
                    for (&i, slot) in block.iter().zip(out) {
                        self.conditional_into(i, &mut scores);
                        softmax_in_place(&mut scores);
                        let u: f64 = rng.gen();
                        *slot = sample_categorical(&scores, u);
                    }
                },
            );
            for (&i, &val) in class.iter().zip(&class_vals) {
                self.assign(self.query[i], val);
            }
        }
        self.class_vals = class_vals;
        self.sweep_no += 1;
    }

    /// Runs burn-in + sampling sweeps and returns raw per-candidate sample
    /// counts aligned to this sampler's query list (what per-component
    /// sampling normalises, where full-graph count vectors would cost
    /// O(variables) per component).
    pub(crate) fn collect_query_counts(&mut self, burn_in: usize, samples: usize) -> Vec<Vec<f64>> {
        for _ in 0..burn_in {
            self.sweep();
        }
        let mut counts: Vec<Vec<f64>> = self
            .query
            .iter()
            .map(|&v| vec![0.0; self.graph.var(v).arity()])
            .collect();
        for _ in 0..samples.max(1) {
            self.sweep();
            for (i, &v) in self.query.iter().enumerate() {
                counts[i][self.state[v.index()]] += 1.0;
            }
        }
        counts
    }

    /// [`GibbsSampler::collect_query_counts`] scattered into full-graph
    /// count vectors.
    fn collect_counts(&mut self, burn_in: usize, samples: usize) -> Vec<Vec<f64>> {
        let query_counts = self.collect_query_counts(burn_in, samples);
        let mut counts: Vec<Vec<f64>> = self
            .graph
            .vars()
            .iter()
            .map(|v| vec![0.0; v.arity()])
            .collect();
        for (&v, c) in self.query.iter().zip(query_counts) {
            counts[v.index()] = c;
        }
        counts
    }

    /// Runs burn-in + sampling sweeps and returns empirical marginals.
    /// Evidence variables get a point mass on their observed candidate.
    pub fn run(mut self, config: &GibbsConfig) -> Marginals {
        let mut counts = self.collect_counts(config.burn_in, config.samples);
        normalize_counts(self.graph, &mut counts);
        Marginals::from_raw(counts)
    }
}

/// Hooks for the tests that pin the compiled conditional against the
/// interpreted reference at arbitrary states.
#[cfg(test)]
impl<C: ValueContext + Sync> GibbsSampler<'_, C> {
    /// Overwrites the whole state vector (one candidate index per graph
    /// variable).
    pub(crate) fn set_state(&mut self, state: &[usize]) {
        for (v, &k) in self.graph.var_ids().zip(state) {
            self.assign(v, k);
        }
    }

    /// Raw (pre-softmax) conditional scores of the `i`-th query variable.
    pub(crate) fn conditional(&self, i: usize) -> Vec<f64> {
        let mut scores = Vec::new();
        self.conditional_into(i, &mut scores);
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use crate::graph::{
        CliqueFactor, CmpOp, EqOnlyContext, FactorOperand, FactorPredicate, GraphBuilder, Variable,
    };
    use crate::weights::{WeightId, Weights};

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// Independent two-candidate variable with a unary preference: Gibbs
    /// marginals must approach the softmax.
    #[test]
    fn independent_variable_matches_softmax() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 1.5);
        g.add_feature(v, 0, WeightId(0), 1.0);
        let g = g.build();
        let ctx = EqOnlyContext;
        let m = GibbsSampler::new(&g, &w, &ctx, 7).run(&GibbsConfig {
            burn_in: 50,
            samples: 4000,
            seed: 7,
        });
        let sigmoid = 1.0 / (1.0 + (-1.5f64).exp());
        assert!(
            (m.prob(v, 0) - sigmoid).abs() < 0.03,
            "got {}, want ≈{sigmoid}",
            m.prob(v, 0)
        );
    }

    /// Two variables coupled by a soft "must differ" constraint: compare
    /// against brute-force enumeration.
    #[test]
    fn coupled_pair_matches_exact_enumeration() {
        let mut g = GraphBuilder::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 0.8); // unary pull of candidate 0 on var a
        w.set(WeightId(1), 2.0); // penalty for equality
        g.add_feature(a, 0, WeightId(0), 1.0);
        g.add_clique(CliqueFactor {
            vars: vec![a, b],
            weight: WeightId(1),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        });
        let g = g.build();
        let ctx = EqOnlyContext;
        let exact = exact_marginals(&g, &w, &ctx);
        let approx = GibbsSampler::new(&g, &w, &ctx, 13).run(&GibbsConfig {
            burn_in: 200,
            samples: 20_000,
            seed: 13,
        });
        for v in [a, b] {
            for k in 0..2 {
                assert!(
                    (exact.prob(v, k) - approx.prob(v, k)).abs() < 0.02,
                    "var {v:?} cand {k}: exact {} vs gibbs {}",
                    exact.prob(v, k),
                    approx.prob(v, k)
                );
            }
        }
    }

    /// Evidence variables never move and exert their influence on
    /// neighbours through cliques.
    #[test]
    fn evidence_pins_and_influences() {
        let mut g = GraphBuilder::new();
        let e = g.add_variable(Variable::evidence(vec![sym(1), sym(2)], 0));
        let q = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 3.0);
        // ¬(e = q): q should avoid candidate sym(1).
        g.add_clique(CliqueFactor {
            vars: vec![e, q],
            weight: WeightId(0),
            predicates: vec![FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        });
        let g = g.build();
        let ctx = EqOnlyContext;
        let m = GibbsSampler::new(&g, &w, &ctx, 3).run(&GibbsConfig {
            burn_in: 50,
            samples: 3000,
            seed: 3,
        });
        assert_eq!(m.probs(e), &[1.0, 0.0]);
        assert!(
            m.prob(q, 1) > 0.9,
            "q flees the evidence value: {:?}",
            m.probs(q)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut g = GraphBuilder::new();
        let v = g.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], None));
        let mut w = Weights::zeros(1);
        w.set(WeightId(0), 0.5);
        g.add_feature(v, 1, WeightId(0), 1.0);
        let g = g.build();
        let ctx = EqOnlyContext;
        let cfg = GibbsConfig {
            burn_in: 10,
            samples: 500,
            seed: 42,
        };
        let m1 = GibbsSampler::new(&g, &w, &ctx, cfg.seed).run(&cfg);
        let m2 = GibbsSampler::new(&g, &w, &ctx, cfg.seed).run(&cfg);
        assert_eq!(m1, m2);
    }

    #[test]
    fn zero_query_vars_is_fine() {
        let mut g = GraphBuilder::new();
        g.add_variable(Variable::evidence(vec![sym(1)], 0));
        let w = Weights::zeros(0);
        let g = g.build();
        let ctx = EqOnlyContext;
        let m = GibbsSampler::new(&g, &w, &ctx, 1).run(&GibbsConfig::default());
        assert_eq!(m.probs(VarId(0)), &[1.0]);
    }

    #[test]
    fn color_block_seeds_distinct_and_never_identity() {
        // No identity shortcut at block 0 — it must not replay the
        // sampler's own stream — and no collisions across blocks.
        assert_ne!(color_block_seed(42, 0), 42);
        let mut seeds: Vec<u64> = (0..64).map(|b| color_block_seed(42, b)).collect();
        seeds.push(42);
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
    }

    /// Three-variable chain with two soft must-differ cliques — two colors
    /// ({a, c} at color 0, {b} at color 1), the smallest graph where
    /// chromatic sweeps engage.
    fn chain_graph() -> (FactorGraph, Weights) {
        let mut g = GraphBuilder::new();
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let c = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let mut w = Weights::zeros(2);
        w.set(WeightId(0), 0.9);
        w.set(WeightId(1), 1.6);
        g.add_feature(a, 0, WeightId(0), 1.0);
        for pair in [[a, b], [b, c]] {
            g.add_clique(CliqueFactor {
                vars: pair.to_vec(),
                weight: WeightId(1),
                predicates: vec![FactorPredicate {
                    lhs: FactorOperand::Var(0),
                    op: CmpOp::Eq,
                    rhs: FactorOperand::Var(1),
                }],
            });
        }
        (g.build(), w)
    }

    #[test]
    fn chromatic_sweep_blocks_counts_plan_blocks() {
        let (g, _) = chain_graph();
        let query = g.query_vars();
        assert_eq!(chromatic_sweep_blocks(g.coloring(), &query), 2);
        // A single-variable query never gets a plan.
        assert_eq!(chromatic_sweep_blocks(g.coloring(), &query[..1]), 0);
    }

    #[test]
    fn single_color_chromatic_is_bit_for_bit_sequential() {
        // Clique-free graph: one color, so `with_chromatic` arms no plan
        // and the sampler runs today's sequential sweep verbatim.
        let mut g = GraphBuilder::new();
        let mut w = Weights::zeros(3);
        for k in 0..3u32 {
            let v = g.add_variable(Variable::query(vec![sym(1), sym(2), sym(3)], None));
            w.set(WeightId(k), 0.3 * (k as f64 + 1.0));
            g.add_feature(v, k as usize, WeightId(k), 1.0);
        }
        let g = g.build();
        let ctx = EqOnlyContext;
        let cfg = GibbsConfig {
            burn_in: 20,
            samples: 400,
            seed: 11,
        };
        assert_eq!(g.coloring().num_colors(), 1);
        let sequential = GibbsSampler::new(&g, &w, &ctx, cfg.seed).run(&cfg);
        let chromatic = GibbsSampler::new(&g, &w, &ctx, cfg.seed)
            .with_chromatic(g.coloring(), 4)
            .run(&cfg);
        assert_eq!(sequential, chromatic);
    }

    #[test]
    fn chromatic_deterministic_at_any_thread_count() {
        let (g, w) = chain_graph();
        let ctx = EqOnlyContext;
        let cfg = GibbsConfig {
            burn_in: 30,
            samples: 1500,
            seed: 23,
        };
        let reference = GibbsSampler::new(&g, &w, &ctx, cfg.seed)
            .with_chromatic(g.coloring(), 1)
            .run(&cfg);
        for threads in [2, 4, 8] {
            let m = GibbsSampler::new(&g, &w, &ctx, cfg.seed)
                .with_chromatic(g.coloring(), threads)
                .run(&cfg);
            assert_eq!(m, reference, "threads = {threads}");
        }
        // And stable across repeated runs.
        let again = GibbsSampler::new(&g, &w, &ctx, cfg.seed)
            .with_chromatic(g.coloring(), 4)
            .run(&cfg);
        assert_eq!(again, reference);
    }

    #[test]
    fn chromatic_matches_exact_enumeration() {
        let (g, w) = chain_graph();
        let ctx = EqOnlyContext;
        let exact = exact_marginals(&g, &w, &ctx);
        let approx = GibbsSampler::new(&g, &w, &ctx, 31)
            .with_chromatic(g.coloring(), 4)
            .run(&GibbsConfig {
                burn_in: 300,
                samples: 30_000,
                seed: 31,
            });
        for v in [VarId(0), VarId(1), VarId(2)] {
            for k in 0..2 {
                assert!(
                    (exact.prob(v, k) - approx.prob(v, k)).abs() < 0.02,
                    "var {v:?} cand {k}: exact {} vs chromatic {}",
                    exact.prob(v, k),
                    approx.prob(v, k)
                );
            }
        }
    }
}
