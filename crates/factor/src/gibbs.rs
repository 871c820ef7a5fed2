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
//! ## The frozen-weight score cache
//!
//! Weights never move during sampling, so a sampler reads its unary terms
//! from a [`ScoreCache`]: the conditional's unary term is a memcpy of the
//! variable's cached row range instead of a kernel walk over the design
//! matrix, while clique deltas are still re-evaluated against the live
//! state. The cache holds exactly the bytes
//! [`DesignMatrix::score_var_into`](crate::design::DesignMatrix::score_var_into)
//! would produce. A per-component sampler
//! ([`GibbsSampler::for_query`]) borrows the cache its
//! [`infer_partitioned`](crate::components::infer_partitioned) call built;
//! a standalone one ([`GibbsSampler::new`]) builds its own. **Freshness
//! invariant:** a cache borrows the design matrix it scored and is never
//! stored in [`FactorGraph`], so no later pass can read its scores.
//!
//! ## Compiled clique kernel
//!
//! Neither the sampler nor exact enumeration interprets a clique per
//! sample. Each Gibbs or exact unit compiles, once, a `CliqueKernel`: flat
//! *entries* (the penalty `-θ` and two predicate counts) over one
//! predicate arena. A Gibbs kernel has one row per query variable `v`,
//! holding one entry per clique in `cliques_of(v)` order; an exact kernel
//! has one row with one entry per clique of the component, ascending.
//!
//! * **Operand space.** Every operand is a `u32` slot of one
//!   *component-local* symbol array. Slots `0..n` are the unit's query
//!   variables at their current candidates, in query order. After them
//!   comes the *constant pool*: clique constants and the symbols of every
//!   other clique member (evidence, pinned for as long as the unit runs),
//!   deduplicated by symbol. The sampler's state and symbol arrays are
//!   sized to this space, never to the graph.
//! * **Guards and owns.** In a Gibbs row, the first slot `v` occupies in
//!   a clique is the candidate being scored: a flag on the predicate, on
//!   either side or both (`Me op Me`). A later repeat of `v` reads its
//!   current symbol like any other member. A *guard* has no flag: it is
//!   evaluated once per pair of candidates, and one false guard skips the
//!   clique for both. An *own* predicate is evaluated per candidate. An
//!   exact row has guards only. A denial constraint is a conjunction, so
//!   the order predicates are tested in cannot change whether it fires.
//! * **Folding.** A predicate over two pool slots is decided at build,
//!   with the unit's value context. A true one is dropped; a false one
//!   means the clique can never fire, so its entry is dropped (counted as
//!   folded in [`PartitionStats`](crate::components::PartitionStats)).
//! * **Accumulation.** A row is walked once per pair of candidates, whose
//!   two scores stay in registers from the first entry to the last. Past
//!   its guards, an entry adds to each: `-θ` when the candidate's owns
//!   hold, `-0.0` otherwise — a select, not a skip. `x + -0.0` is `x` bit
//!   for bit for every `x`, so that is exactly a skip. Every candidate therefore receives the
//!   non-zero addends of the interpreted loop (`Clique::score` per
//!   clique per candidate) in the same order, and differs from it at most
//!   in the sign of a zero score, where the interpreter adds `+0.0`. The
//!   max-shifted softmax erases that sign, so the post-softmax conditional
//!   is bit-for-bit the interpreted one — proptested against the
//!   `#[cfg(test)]` interpreter over every operator, null symbols and
//!   repeated variables. Exact enumeration starts its joint score at
//!   `+0.0`, which no addition turns into `-0.0`, so there adding `+0.0`,
//!   adding `-0.0` and skipping all give the same bits.
//! * **Operators.** `=` and `≠` are decided inline, without a branch. Any
//!   other operator goes through the value context, out of line; a kernel
//!   with none runs a copy of the loop that never calls the context, so
//!   its state stays in registers.
//! * **Fixed-width rows.** When every clique of a kernel carries the same
//!   penalty (the DC-factor model's one fixed `DcFactor` weight), a row
//!   whose entries each have at most one guard and one own, both `=` or
//!   `≠`, is built as 16-byte fixed entries *instead of* the
//!   variable-length form: two guard slots, the own's other slot and op
//!   bits. Such a row is walked without a branch on the data: per
//!   candidate `fires = guard & own` and `acc += if fires { -θ } else {
//!   -0.0 }` — the same non-zero addends in the same order, so the same
//!   bits. A missing guard compares a pooled non-null stand-in with
//!   itself; a missing own (exact rows) holds by its bit, and a kernel
//!   without one runs a loop that never tests it. Any other row (three
//!   guards, `<` or similarity, mixed penalties) keeps the general form;
//!   [`PartitionStats`](crate::components::PartitionStats) counts the
//!   fixed-width entries.
//! * **Lifetime.** Weights are frozen while a unit runs, which is what
//!   makes resolving `-θ` and the pool at build sound. A Gibbs kernel
//!   belongs to its sampler ([`GibbsSampler::for_query`]): its sweeps read
//!   it, and it dies with the sampler.

use crate::cache::ScoreCache;
use crate::graph::{CmpOp, FactorGraph, FactorOperand, ValueContext, VarId, Variable};
use crate::marginals::Marginals;
use crate::math::{sample_categorical, softmax_in_place};
use crate::weights::Weights;
use holo_dataset::Sym;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

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

/// `Pred::me` bits: which sides of an own predicate read the candidate.
const ME_LHS: u8 = 1;
const ME_RHS: u8 = 2;

/// `CliqueKernel::ops` index of `≠`. `=` is index 0; both are decided
/// inline, every later operator by the value context.
const NEQ: u32 = 1;

/// One compiled clique predicate: two slots of the unit's symbol array
/// and an index into the kernel's operator table (16 bytes).
#[derive(Clone, Copy)]
struct Pred {
    lhs: u32,
    rhs: u32,
    op: u32,
    /// `ME_LHS | ME_RHS` bits of an own predicate; `0` for a guard. A
    /// flagged side's slot is `0` and unread.
    me: u8,
}

/// One clique of a [`CliqueKernel`] row. Its `guards + owns` predicates
/// are contiguous in the predicate arena, guards first.
struct Entry {
    /// `-θ`, added to every candidate the clique fires on.
    penalty: f64,
    guards: u32,
    owns: u32,
}

/// [`Fixed::bits`]: the guard / own is `≠` (else `=`); the entry has no
/// own (an exact row); its own reads the candidate on both sides.
const GUARD_NEQ: u32 = 1;
const OWN_NEQ: u32 = 2;
const NO_OWN: u32 = 4;
const OWN_ME_BOTH: u32 = 8;

/// One clique of a fixed-width [`CliqueKernel`] row (16 bytes): at most
/// one guard and one own predicate, both `=` or `≠`, at the kernel's one
/// penalty. An entry without a guard gets `always = always`, which holds.
/// `=` and `≠` are symmetric, so an own compares the candidate with `own`
/// whichever side the candidate is on; without an own, `own` is `0`, read
/// and ignored.
#[derive(Clone, Copy)]
struct Fixed {
    guard: [u32; 2],
    own: u32,
    bits: u32,
}

/// How many entries building one [`CliqueKernel`] kept, how many of them
/// are fixed-width, and how many it folded away; summed into
/// [`PartitionStats`](crate::components::PartitionStats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelCounts {
    pub(crate) entries: u64,
    pub(crate) compact: u64,
    pub(crate) folded: u64,
}

/// An operand of a clique predicate, resolved for one unit.
#[derive(Clone, Copy)]
enum Operand {
    /// The candidate being scored.
    Me,
    /// The query variable in this slot.
    Slot(u32),
    /// A symbol that never moves while the unit runs.
    Const(Sym),
}

/// The clique terms of one Gibbs or exact unit, compiled once (see
/// "Compiled clique kernel" in the module docs).
pub(crate) struct CliqueKernel {
    /// `starts[r]` = (first entry, first predicate, first fixed-width
    /// entry) of row `r`; one trailing sentinel. A row lives in one of the
    /// two forms, so one of its ranges is empty.
    starts: Vec<(usize, usize, usize)>,
    entries: Vec<Entry>,
    preds: Vec<Pred>,
    fixed: Vec<Fixed>,
    /// `-θ` of every fixed-width entry.
    penalty: f64,
    /// The pool slot of a non-null stand-in symbol, the guard of the
    /// fixed-width entries that have none.
    always: Option<u32>,
    /// Whether some fixed-width entry has no own or reads the candidate
    /// on both sides (never in a DC-factor Gibbs row).
    flagged: bool,
    /// The distinct operators, `=` and `≠` first.
    ops: Vec<CmpOp>,
    /// The constant pool: the symbols of slots `n..`.
    pool: Vec<Sym>,
    folded: u64,
}

impl CliqueKernel {
    /// The Gibbs kernel of `query`: row `i` holds the cliques of
    /// `query[i]`, the first slot it occupies read as the candidate.
    pub(crate) fn conditionals(
        graph: &FactorGraph,
        weights: &Weights,
        ctx: &impl ValueContext,
        query: &[VarId],
    ) -> Self {
        let rows = query.iter().map(|&v| (Some(v), graph.cliques_of(v)));
        Self::build(graph, weights, ctx, query, rows)
    }

    /// The exact kernel of `query`: one row holding every clique adjacent
    /// to it once, ascending, with no candidate.
    pub(crate) fn joint(
        graph: &FactorGraph,
        weights: &Weights,
        ctx: &impl ValueContext,
        query: &[VarId],
    ) -> Self {
        let mut cliques: Vec<u32> = query
            .iter()
            .flat_map(|&v| graph.cliques_of(v).iter().copied())
            .collect();
        cliques.sort_unstable();
        cliques.dedup();
        Self::build(
            graph,
            weights,
            ctx,
            query,
            [(None, &cliques[..])].into_iter(),
        )
    }

    /// Compiles one row per item of `rows` — the variable read as the
    /// candidate, if any, and the cliques to compile — over the symbol
    /// space of `query`.
    fn build<'c>(
        graph: &FactorGraph,
        weights: &Weights,
        ctx: &impl ValueContext,
        query: &[VarId],
        rows: impl Iterator<Item = (Option<VarId>, &'c [u32])> + Clone,
    ) -> Self {
        // Sized up front for the unfolded program: the arenas are a unit's
        // largest allocation, and growing them by doubling copies them.
        let all = rows.clone().flat_map(|(_, cliques)| cliques);
        let preds = all.clone().map(|&ci| graph.clique(ci).predicates().len());
        // Fixed-width rows need one penalty for the whole kernel.
        let mut penalties = all
            .clone()
            .map(|&ci| (-weights.get(graph.clique(ci).weight())).to_bits());
        let first_penalty = penalties.next();
        let shared = first_penalty.filter(|&p| penalties.all(|q| q == p));
        let mut kernel = CliqueKernel {
            starts: Vec::with_capacity(rows.clone().count() + 1),
            entries: Vec::with_capacity(all.count()),
            preds: Vec::with_capacity(preds.sum()),
            fixed: Vec::new(),
            penalty: shared.map_or(0.0, f64::from_bits),
            always: None,
            flagged: false,
            ops: vec![CmpOp::Eq, CmpOp::Neq],
            pool: Vec::new(),
            folded: 0,
        };
        let mut pooled: HashMap<Sym, u32> = HashMap::new();
        let mut owns: Vec<Pred> = Vec::new();
        for (v, cliques) in rows {
            kernel.starts.push(kernel.row_start());
            'entry: for &ci in cliques {
                let clique = graph.clique(ci);
                let me = v.and_then(|v| clique.vars().iter().position(|&u| u == v));
                let resolve = |o: FactorOperand| match o {
                    FactorOperand::Const(sym) => Operand::Const(sym),
                    FactorOperand::Var(slot) if Some(slot as usize) == me => Operand::Me,
                    FactorOperand::Var(slot) => {
                        let u = clique.vars()[slot as usize];
                        match query.binary_search(&u) {
                            Ok(i) => Operand::Slot(i as u32),
                            Err(_) => {
                                let var = graph.var(u);
                                Operand::Const(var.domain[initial_candidate(var)])
                            }
                        }
                    }
                };
                let first = kernel.preds.len();
                owns.clear();
                for p in clique.predicates() {
                    let (lhs, rhs) = (resolve(p.lhs), resolve(p.rhs));
                    if let (Operand::Const(a), Operand::Const(b)) = (lhs, rhs) {
                        if !p.op.holds(a, b, ctx) {
                            // The clique can never fire: fold its entry.
                            kernel.preds.truncate(first);
                            kernel.folded += 1;
                            continue 'entry;
                        }
                        continue;
                    }
                    let me_bit = |o: Operand, bit: u8| match o {
                        Operand::Me => bit,
                        _ => 0,
                    };
                    let mut slot = |o: Operand| match o {
                        Operand::Me => 0,
                        Operand::Slot(i) => i,
                        Operand::Const(sym) => *pooled.entry(sym).or_insert_with(|| {
                            kernel.pool.push(sym);
                            (query.len() + kernel.pool.len() - 1) as u32
                        }),
                    };
                    let pred = Pred {
                        lhs: slot(lhs),
                        rhs: slot(rhs),
                        op: match kernel.ops.iter().position(|&op| op == p.op) {
                            Some(k) => k as u32,
                            None => {
                                kernel.ops.push(p.op);
                                (kernel.ops.len() - 1) as u32
                            }
                        },
                        me: me_bit(lhs, ME_LHS) | me_bit(rhs, ME_RHS),
                    };
                    if pred.me == 0 {
                        kernel.preds.push(pred);
                    } else {
                        owns.push(pred);
                    }
                }
                let guards = kernel.preds.len() - first;
                kernel.preds.extend_from_slice(&owns);
                kernel.entries.push(Entry {
                    penalty: -weights.get(clique.weight()),
                    guards: guards as u32,
                    owns: owns.len() as u32,
                });
            }
            if shared.is_some() {
                kernel.make_fixed_width(query.len());
            }
        }
        kernel.starts.push(kernel.row_start());
        kernel
    }

    /// Where the next row starts in each arena.
    fn row_start(&self) -> (usize, usize, usize) {
        (self.entries.len(), self.preds.len(), self.fixed.len())
    }

    /// Rewrites the row just built, the tail of the arenas, as fixed-width
    /// entries if each of its entries has at most one guard and one own,
    /// both `=` or `≠`; the kernel's entries share one penalty. The pool's
    /// slots start at `n_query`.
    fn make_fixed_width(&mut self, n_query: usize) {
        let &(first, at, _) = self.starts.last().expect("a row was started");
        let entries = &self.entries[first..];
        let narrow = |e: &Entry| e.guards <= 1 && e.owns <= 1;
        if !entries.iter().all(narrow) || self.preds[at..].iter().any(|p| p.op > NEQ) {
            return;
        }
        let neq = |p: &Pred, bit: u32| if p.op == NEQ { bit } else { 0 };
        let mut preds = &self.preds[at..];
        for e in entries {
            let (guard, rest) = preds.split_at(e.guards as usize);
            let (own, rest) = rest.split_at(e.owns as usize);
            preds = rest;
            let (guard, bits) = match guard.first() {
                Some(p) => ([p.lhs, p.rhs], neq(p, GUARD_NEQ)),
                None => {
                    let pool = &mut self.pool;
                    let always = *self.always.get_or_insert_with(|| {
                        pool.push(Sym(u32::MAX));
                        (n_query + pool.len() - 1) as u32
                    });
                    ([always, always], 0)
                }
            };
            let (own, bits) = match own.first() {
                Some(p) if p.me == ME_LHS | ME_RHS => (0, bits | neq(p, OWN_NEQ) | OWN_ME_BOTH),
                Some(p) if p.me == ME_LHS => (p.rhs, bits | neq(p, OWN_NEQ)),
                Some(p) => (p.lhs, bits | neq(p, OWN_NEQ)),
                None => (0, bits | NO_OWN),
            };
            self.flagged |= bits & (NO_OWN | OWN_ME_BOTH) != 0;
            self.fixed.push(Fixed { guard, own, bits });
        }
        self.entries.truncate(first);
        self.preds.truncate(at);
    }

    /// What building this kernel kept and folded.
    pub(crate) fn counts(&self) -> KernelCounts {
        KernelCounts {
            entries: (self.entries.len() + self.fixed.len()) as u64,
            compact: self.fixed.len() as u64,
            folded: self.folded,
        }
    }

    /// The unit's symbol array: `query_syms` (one per query variable, in
    /// query order) followed by the constant pool.
    pub(crate) fn symbols(&self, query_syms: impl Iterator<Item = Sym>) -> Vec<Sym> {
        query_syms.chain(self.pool.iter().copied()).collect()
    }

    /// Whether `a p.op b` holds. Without `CONTEXT` the kernel has no
    /// operator but `=` and `≠`.
    #[inline(always)]
    fn holds<const CONTEXT: bool>(
        &self,
        p: &Pred,
        a: Sym,
        b: Sym,
        ctx: &impl ValueContext,
    ) -> bool {
        if CONTEXT && p.op > NEQ {
            return holds_in_context(self.ops[p.op as usize], a, b, ctx);
        }
        // `=` and `≠`, all a denial constraint over categorical cells
        // usually uses, without a branch.
        eq_or_neq(a, b, p.op == NEQ)
    }

    /// Adds the clique terms of row `row` to `scores`, one per candidate
    /// in `domain`, every slot at its symbol in `syms`. An exact row has no
    /// candidate: it takes one stand-in symbol and one score.
    pub(crate) fn add_clique_terms(
        &self,
        row: usize,
        domain: &[Sym],
        syms: &[Sym],
        ctx: &impl ValueContext,
        scores: &mut [f64],
    ) {
        let (_, _, fixed) = self.starts[row];
        let (_, _, fixed_end) = self.starts[row + 1];
        if fixed < fixed_end {
            let row = &self.fixed[fixed..fixed_end];
            return match self.flagged {
                true => self.add_fixed_terms::<true>(row, domain, syms, scores),
                false => self.add_fixed_terms::<false>(row, domain, syms, scores),
            };
        }
        // `ops` holds more than `=` and `≠` only when the kernel needs the
        // value context (see "Operators" in the module docs).
        if self.ops.len() > 2 {
            self.add_terms::<true>(row, domain, syms, ctx, scores);
        } else {
            self.add_terms::<false>(row, domain, syms, ctx, scores);
        }
    }

    /// [`CliqueKernel::add_clique_terms`], for a kernel with (`CONTEXT`)
    /// or without operators beyond `=` and `≠`.
    #[inline(always)]
    fn add_terms<const CONTEXT: bool>(
        &self,
        row: usize,
        domain: &[Sym],
        syms: &[Sym],
        ctx: &impl ValueContext,
        scores: &mut [f64],
    ) {
        let (first, at, _) = self.starts[row];
        let (last, end, _) = self.starts[row + 1];
        let slot = |s: u32| syms[s as usize];
        let holds = |p: &Pred, a, b| self.holds::<CONTEXT>(p, a, b, ctx);
        for_each_pair(domain, scores, |cands, acc| {
            let mut preds = &self.preds[at..end];
            for entry in &self.entries[first..last] {
                let (guards, rest) = preds.split_at(entry.guards as usize);
                let (owns, rest) = rest.split_at(entry.owns as usize);
                preds = rest;
                if !guards.iter().all(|p| holds(p, slot(p.lhs), slot(p.rhs))) {
                    continue;
                }
                for (acc, &me) in acc.iter_mut().zip(cands) {
                    let fires = owns.iter().fold(true, |fires, p| {
                        let a = if p.me & ME_LHS != 0 { me } else { slot(p.lhs) };
                        let b = if p.me & ME_RHS != 0 { me } else { slot(p.rhs) };
                        fires & holds(p, a, b)
                    });
                    *acc += if fires { entry.penalty } else { -0.0 };
                }
            }
        });
    }

    /// [`CliqueKernel::add_clique_terms`] over a fixed-width row: the same
    /// candidate pairs and addends, without a branch on the data — the
    /// guard is folded into each candidate's `fires` instead of skipping
    /// the entry. Without `FLAGS` no entry lacks an own or reads the
    /// candidate twice, and the loop tests neither.
    #[inline(always)]
    fn add_fixed_terms<const FLAGS: bool>(
        &self,
        row: &[Fixed],
        domain: &[Sym],
        syms: &[Sym],
        scores: &mut [f64],
    ) {
        let penalty = self.penalty;
        let slot = |s: u32| syms[s as usize];
        for_each_pair(domain, scores, |cands, acc| {
            for e in row {
                let neq = e.bits & GUARD_NEQ != 0;
                let guard = eq_or_neq(slot(e.guard[0]), slot(e.guard[1]), neq);
                let (other, neq) = (slot(e.own), e.bits & OWN_NEQ != 0);
                for (acc, &me) in acc.iter_mut().zip(cands) {
                    let own = if FLAGS {
                        let b = if e.bits & OWN_ME_BOTH != 0 { me } else { other };
                        (e.bits & NO_OWN != 0) | eq_or_neq(me, b, neq)
                    } else {
                        eq_or_neq(me, other, neq)
                    };
                    *acc += if guard & own { penalty } else { -0.0 };
                }
            }
        });
    }
}

/// Runs `walk` over the candidates of `domain` two at a time, their
/// scores in registers for the whole row: adding to `scores` in place
/// would chain each entry's addition to the last one through a store and
/// a reload. Two beats four because most domains of the DC-factor model
/// have two candidates and every lane evaluates its owns. An odd last
/// candidate shares its pair with a null stand-in, whose score is
/// dropped. The copies go element by element: a slice copy of a length
/// the compiler cannot see is a `memcpy` call per pair.
#[inline(always)]
fn for_each_pair(
    domain: &[Sym],
    scores: &mut [f64],
    mut walk: impl FnMut(&[Sym; 2], &mut [f64; 2]),
) {
    for (scores, domain) in scores.chunks_mut(2).zip(domain.chunks(2)) {
        let mut cands = [Sym::NULL; 2];
        for (c, &d) in cands.iter_mut().zip(domain) {
            *c = d;
        }
        let mut acc = [0.0; 2];
        for (a, &s) in acc.iter_mut().zip(&*scores) {
            *a = s;
        }
        walk(&cands, &mut acc);
        for (s, &a) in scores.iter_mut().zip(&acc) {
            *s = a;
        }
    }
}

/// Whether `a = b` (`a ≠ b` with `neq`) holds: a null satisfies neither.
#[inline(always)]
fn eq_or_neq(a: Sym, b: Sym, neq: bool) -> bool {
    !a.is_null() & !b.is_null() & ((a == b) != neq)
}

/// [`CmpOp::holds`] kept out of line and cold, so the loops that may
/// reach it keep their state in registers.
#[cold]
#[inline(never)]
fn holds_in_context(op: CmpOp, a: Sym, b: Sym, ctx: &impl ValueContext) -> bool {
    op.holds(a, b, ctx)
}

/// The interpreted conditional the compiled program replaced, kept as the
/// test reference: unary scores, then `Clique::score` per adjacent
/// clique per candidate with every other member at its state.
#[cfg(test)]
pub(crate) fn conditional_scores_into<C: ValueContext>(
    graph: &FactorGraph,
    weights: &Weights,
    ctx: &C,
    state: &[usize],
    v: VarId,
    scores: &mut Vec<f64>,
) {
    graph.design().score_var_into(v, weights, scores);
    let mut clique_syms: Vec<Sym> = Vec::new();
    for &ci in graph.cliques_of(v) {
        let clique = graph.clique(ci);
        let slot = clique
            .vars()
            .iter()
            .position(|&u| u == v)
            .expect("adjacency list inconsistent");
        clique_syms.clear();
        for &u in clique.vars() {
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
    ctx: &'a C,
    /// Current candidate index of each query variable, in `query` order.
    state: Vec<usize>,
    /// The kernel's symbol array: `domain[state]` of each query variable,
    /// kept in step with `state`, then the constant pool.
    syms: Vec<Sym>,
    query: Vec<VarId>,
    /// The compiled clique terms of `query`'s conditionals.
    kernel: CliqueKernel,
    rng: StdRng,
    /// Scratch buffer for conditional scores.
    scores: Vec<f64>,
    /// Frozen-weight unary scores (see the module docs): borrowed from the
    /// inference pass, or built by a standalone sampler.
    cache: Cow<'a, ScoreCache<'a>>,
}

impl<'a, C: ValueContext> GibbsSampler<'a, C> {
    /// A sampler over every query variable of the graph, with a score
    /// cache of its own. Initialises state: evidence at its observed
    /// candidate, query variables at their initial value (or candidate 0).
    pub fn new(graph: &'a FactorGraph, weights: &'a Weights, ctx: &'a C, seed: u64) -> Self {
        let cache = ScoreCache::build(graph.design(), weights, 1);
        Self::build(
            graph,
            weights,
            ctx,
            seed,
            graph.query_vars(),
            Cow::Owned(cache),
        )
    }

    /// A sampler whose sweeps touch only `query` (a subset of the graph's
    /// query variables, in ascending id order) and whose unary terms come
    /// from `cache` (built against this graph's design matrix and
    /// `weights`) — the per-component sampler of
    /// [`crate::components::infer_partitioned`]. All other variables stay
    /// pinned at their initial state; that is sound exactly when no clique
    /// couples `query` to an outside *query* variable, which the component
    /// decomposition guarantees. With `query` equal to the full query set
    /// this samples what [`GibbsSampler::new`] does. The sampler's state
    /// covers `query` and the constant pool of its kernel, never the whole
    /// graph.
    pub fn for_query(
        graph: &'a FactorGraph,
        weights: &'a Weights,
        ctx: &'a C,
        seed: u64,
        query: Vec<VarId>,
        cache: &'a ScoreCache<'a>,
    ) -> Self {
        Self::build(graph, weights, ctx, seed, query, Cow::Borrowed(cache))
    }

    fn build(
        graph: &'a FactorGraph,
        weights: &'a Weights,
        ctx: &'a C,
        seed: u64,
        query: Vec<VarId>,
        cache: Cow<'a, ScoreCache<'a>>,
    ) -> Self {
        debug_assert!(query.iter().all(|&v| graph.var(v).is_query()));
        debug_assert!(query.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let kernel = CliqueKernel::conditionals(graph, weights, ctx, &query);
        let state: Vec<usize> = query
            .iter()
            .map(|&v| initial_candidate(graph.var(v)))
            .collect();
        let syms = kernel.symbols(
            query
                .iter()
                .zip(&state)
                .map(|(&v, &k)| graph.var(v).domain[k]),
        );
        GibbsSampler {
            graph,
            ctx,
            state,
            syms,
            kernel,
            query,
            rng: StdRng::seed_from_u64(seed),
            scores: Vec::new(),
            cache,
        }
    }

    /// Moves the `i`-th query variable to candidate `k`, keeping the
    /// symbol array in step.
    #[inline]
    fn assign(&mut self, i: usize, k: usize) {
        self.state[i] = k;
        self.syms[i] = self.graph.var(self.query[i]).domain[k];
    }

    /// What building this sampler's kernel kept and folded.
    pub(crate) fn kernel_counts(&self) -> KernelCounts {
        self.kernel.counts()
    }

    /// Conditional log-scores of every candidate of the `i`-th query
    /// variable given the rest, into `scores`: a memcpy of the cached
    /// unary row range, then the compiled clique terms against the current
    /// symbols.
    fn conditional_into(&self, i: usize, scores: &mut Vec<f64>) {
        let v = self.query[i];
        self.cache.copy_var_scores_into(v, scores);
        let domain = &self.graph.var(v).domain;
        self.kernel
            .add_clique_terms(i, domain, &self.syms, self.ctx, scores);
    }

    /// One sequential single-site sweep over the query variables.
    fn sweep(&mut self) {
        let mut scores = std::mem::take(&mut self.scores);
        for i in 0..self.query.len() {
            self.conditional_into(i, &mut scores);
            softmax_in_place(&mut scores);
            let u: f64 = self.rng.gen();
            self.assign(i, sample_categorical(&scores, u));
        }
        self.scores = scores;
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
            for (c, &k) in counts.iter_mut().zip(&self.state) {
                c[k] += 1.0;
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
impl<C: ValueContext> GibbsSampler<'_, C> {
    /// Moves every query variable to its candidate in `state` (one
    /// candidate index per graph variable). Every other variable must sit
    /// at the candidate it is pinned to: the kernel's pool holds that one.
    pub(crate) fn set_state(&mut self, state: &[usize]) {
        debug_assert!(
            self.graph
                .var_ids()
                .all(|v| self.query.binary_search(&v).is_ok()
                    || state[v.index()] == initial_candidate(self.graph.var(v))),
            "a variable outside the query set moved off its pinned candidate"
        );
        for i in 0..self.query.len() {
            self.assign(i, state[self.query[i].index()]);
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
    use crate::exact::reference::exact_marginals;
    use crate::graph::{
        CmpOp, EqOnlyContext, FactorOperand, FactorPredicate, GraphBuilder, Variable,
    };
    use crate::weights::{WeightId, Weights};

    fn sym(i: u32) -> Sym {
        Sym(i)
    }

    /// A row is fixed-width only when each of its entries has at most one
    /// guard and one own, all `=` / `≠`, and only in a kernel whose
    /// cliques share one penalty: a `<` keeps the rows holding it in the
    /// general form, a second penalty keeps every row there, and either
    /// way the conditionals are the interpreter's.
    #[test]
    fn fixed_width_rows_need_eq_or_neq_and_one_penalty() {
        /// Symbols ordered by id.
        struct ById;
        impl ValueContext for ById {
            fn compare(&self, a: Sym, b: Sym) -> std::cmp::Ordering {
                a.0.cmp(&b.0)
            }
            fn similar(&self, a: Sym, b: Sym, _: f64) -> bool {
                a == b
            }
        }
        let kernel = |k1_op: CmpOp, k2_weight: f64| {
            let mut g = GraphBuilder::new();
            let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
            let b = g.add_variable(Variable::query(vec![sym(1), sym(3)], Some(0)));
            let c = g.add_variable(Variable::query(vec![sym(0), sym(2)], Some(1)));
            let pair = |op| {
                [FactorPredicate {
                    lhs: FactorOperand::Var(0),
                    op,
                    rhs: FactorOperand::Var(1),
                }]
            };
            // Rows: a holds K1 and K2, b holds K1, c holds K2.
            g.add_clique(&[a, b], WeightId(0), &pair(k1_op));
            g.add_clique(&[a, c], WeightId(1), &pair(CmpOp::Neq));
            let mut w = Weights::zeros(2);
            w.set(WeightId(0), 4.0);
            w.set(WeightId(1), k2_weight);
            let g = g.build();
            let sampler = GibbsSampler::new(&g, &w, &ById, 0);
            for (i, &v) in g.query_vars().iter().enumerate() {
                let state: Vec<usize> = g.vars().iter().map(initial_candidate).collect();
                let mut want = Vec::new();
                conditional_scores_into(&g, &w, &ById, &state, v, &mut want);
                assert_eq!(sampler.conditional(i), want, "{v:?}");
            }
            let counts = sampler.kernel_counts();
            (counts.entries, counts.compact)
        };
        assert_eq!(kernel(CmpOp::Eq, 4.0), (4, 4));
        assert_eq!(
            kernel(CmpOp::Lt, 4.0),
            (4, 1),
            "only c's row is free of `<`"
        );
        assert_eq!(kernel(CmpOp::Eq, 2.0), (4, 0), "two penalties");
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
        g.add_clique(
            &[a, b],
            WeightId(1),
            &[FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        );
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
        g.add_clique(
            &[e, q],
            WeightId(0),
            &[FactorPredicate {
                lhs: FactorOperand::Var(0),
                op: CmpOp::Eq,
                rhs: FactorOperand::Var(1),
            }],
        );
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

    /// A component sampler's state covers its component, not the graph:
    /// two coupled query variables among 10 000 others hold two candidates
    /// and, beside them, one pooled symbol for their evidence partner.
    #[test]
    fn sampler_state_is_sized_to_its_component() {
        let mut g = GraphBuilder::new();
        for i in 0..10_000u32 {
            g.add_variable(Variable::evidence(vec![sym(i + 10)], 0));
        }
        let a = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(0)));
        let b = g.add_variable(Variable::query(vec![sym(1), sym(2)], Some(1)));
        let equal = |lhs, rhs| FactorPredicate {
            lhs: FactorOperand::Var(lhs),
            op: CmpOp::Eq,
            rhs: FactorOperand::Var(rhs),
        };
        g.add_clique(&[a, b, VarId(7)], WeightId(0), &[equal(0, 1), equal(1, 2)]);
        let g = g.build();
        let w = Weights::zeros(1);
        let cache = ScoreCache::build(g.design(), &w, 1);
        let sampler = GibbsSampler::for_query(&g, &w, &EqOnlyContext, 1, vec![a, b], &cache);
        assert_eq!(sampler.state, [0, 1]);
        assert_eq!(sampler.syms, [sym(1), sym(2), sym(17)]);
        assert_eq!(sampler.kernel_counts().entries, 2);
    }
}
