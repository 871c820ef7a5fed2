//! Algorithm 2 — pruning the domain of the noisy-cell random variables.
//!
//! For a noisy cell `c` in tuple `t` with attribute `A_c`, the candidate
//! repairs are the values `v` of `A_c`'s active domain that co-occur with
//! some other cell value `v_c'` of `t` with conditional probability
//! `Pr[v | v_c'] = #(v, v_c') / #v_c' ≥ τ`. The cell's initial value is
//! always kept (the model must be able to keep the observation), and the
//! candidate list is capped at [`HoloConfig::max_domain`] by descending
//! best conditional probability.
//!
//! Varying τ trades recall (small τ, large domains) against precision and
//! runtime (large τ) — the axis swept in Figures 3 and 4.
//!
//! # The τ-threshold index
//!
//! Which values of a group `(A' = v' → A)` clear τ is a function of the
//! group alone, not of the cell asking. `PruneIndex::build` therefore
//! walks every co-occurrence group of the statistics **once** — those of
//! the target attributes it is given: `compile` names the attributes a
//! cell can be pruned in, [`prune_domains_with_threads`] every attribute —
//! and keeps, per group whose conditioning value occurs at least
//! `min_support` times, the `(value, count)` entries with
//! `count / #v' ≥ τ_min`. Every other attribute of a cell's tuple takes
//! part; no attribute is gated out. Rows are keyed
//! by the statistics' value codes: per conditioning attribute a `Vec`
//! maps code → row, filled from the per-code counts and found by code as
//! the group walk yields it. Pruning a cell is then at most `n_attrs − 1`
//! list lookups — the conditioning code read from the coded column, no
//! value hashed — a max-merge of the probabilities, the `(p desc, value
//! string asc)` sort with the initial value pinned first, and the
//! `max_domain` truncation — no count row is scanned per cell.
//!
//! * **Sharing rule.** The reader re-derives `p = count / #v'` with the
//!   build's own expression and keeps `p ≥ τ`, so an index built at `τ_min`
//!   answers every `τ ≥ τ_min` exactly as an index built at `τ` would:
//!   `compile` builds one at `min(tau, evidence_tau_cap)` and reads it for
//!   both the noisy and the evidence prune.
//! * **Size bound.** A group holds at most `⌊1/τ_min⌋` entries for
//!   `τ_min > 0` (the probabilities of one group sum to ≤ 1); at `τ = 0` the
//!   index is a copy of the statistics' own non-zero counts.
//! * **Determinism.** Shards are built per conditioning attribute and
//!   merged in attribute order; entry order inside a list is unobservable
//!   behind the max-merge and the total sort, so domains are identical at
//!   every thread count.
//!
//! # The domain arena
//!
//! A read writes [`CellDomains`], one flat arena — the cells, an offset per
//! cell and the candidates back to back — not a vector per cell; parallel
//! chunks append theirs in input order. Three rules keep the read cheap:
//!
//! * **Rows once per tuple.** The noisy cells arrive tuple-major (a
//!   [`holo_dataset::CellSet`] iterates that way), so consecutive cells
//!   often share a tuple; each conditioning attribute's shard row is
//!   resolved once for the tuple and reused by its cells.
//! * **Singleton rule.** Most noisy cells keep only their initial value
//!   (55 k of `food_18k`'s 62 k). A cell whose τ-passing entries all equal
//!   its initial value — or that `max_domain = 1` caps — skips both sorts
//!   and stores `[init]`; `compile` makes no variable of it, and grounding
//!   reads such a cell as its observed value.
//! * **Assertions merge on write.** Values a dictionary asserts for a cell
//!   (`compile`'s `(cell, value)` pairs, in the cells' order) follow its
//!   pruned candidates when the domain lacks them, so a singleton that
//!   gains one becomes a query variable. Only cells with ≥ 2 candidates
//!   copy their domain out, into their variable.
//!
//! [`HoloConfig::max_domain`]: crate::config::HoloConfig::max_domain

#[cfg(test)]
use holo_dataset::FxHashMap;
use holo_dataset::{AttrId, CellRef, CooccurStats, Dataset, Sym, TupleId};

/// Pruned candidate domains, one flat arena: cell `i` of `cells` owns
/// `candidates[offsets[i]..offsets[i + 1]]`. Candidates are deduplicated,
/// always contain the cell's initial value (even if null), and are sorted
/// by descending score (initial value first), dictionary-asserted values
/// after them. A cell pruned to its initial value stores exactly that one
/// candidate.
#[derive(Debug, Clone)]
pub struct CellDomains {
    /// The cells, in the order they were pruned: ascending for the
    /// domains [`prune_domains_with_threads`] returns, which
    /// [`CellDomains::get`] binary-searches.
    cells: Vec<CellRef>,
    offsets: Vec<u32>,
    candidates: Vec<Sym>,
}

impl Default for CellDomains {
    fn default() -> Self {
        CellDomains::from_cells(Vec::new())
    }
}

impl CellDomains {
    /// An arena for `cells` before any candidate is written.
    fn from_cells(cells: Vec<CellRef>) -> Self {
        let mut offsets = Vec::with_capacity(cells.len() + 1);
        offsets.push(0);
        CellDomains {
            cells,
            offsets,
            candidates: Vec::new(),
        }
    }

    /// The candidate list of `cell`; empty slice if the cell is unknown.
    /// The cells must ascend (as those of [`prune_domains_with_threads`]
    /// do).
    pub fn get(&self, cell: CellRef) -> &[Sym] {
        self.cells
            .binary_search(&cell)
            .map_or(&[], |i| self.domain(i))
    }

    /// Whether the cell has a pruned domain (cells ascending, as for
    /// [`CellDomains::get`]).
    pub fn contains(&self, cell: CellRef) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are covered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates `(cell, candidates)` in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (CellRef, &[Sym])> {
        (0..self.cells.len()).map(|i| (self.cells[i], self.domain(i)))
    }

    /// Total candidate count over all cells (a size proxy for the factor
    /// graph, reported by the harness).
    pub fn total_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The candidates of the `i`-th cell.
    fn domain(&self, i: usize) -> &[Sym] {
        &self.candidates[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Closes the domain written since the last call, for the next cell.
    fn seal(&mut self) {
        let end = u32::try_from(self.candidates.len()).expect("domain arena outgrew u32 offsets");
        self.offsets.push(end);
    }
}

/// One conditioning attribute's slice of the [`PruneIndex`].
struct Shard {
    /// Conditioning value code → row, [`NO_ROW`] for codes with
    /// `#v' < min_support`.
    rows: Vec<u32>,
    /// `#v'` per row — the denominator of `Pr[v | v']`.
    denom: Vec<u32>,
    /// `(start, len)` into `entries` per `(row, held target)`, row-major,
    /// a held target found by its position among the held targets
    /// (`PruneIndex::slots`); `(0, 0)` where no value clears `τ_min`.
    lists: Vec<(u32, u32)>,
    /// `(v, #(v, v'))` with `#(v, v') / #v' ≥ τ_min`, one run per list.
    entries: Vec<(Sym, u32)>,
}

/// The row of a conditioning code the index does not hold.
const NO_ROW: u32 = u32::MAX;

/// The τ-threshold index over one [`CooccurStats`] (see the module docs).
pub(crate) struct PruneIndex {
    shards: Vec<Shard>,
    /// Per attribute, its position among the target attributes the lists
    /// were built for; `None` for any other attribute.
    slots: Vec<Option<usize>>,
    /// Number of target attributes the lists were built for.
    held: usize,
    tau_min: f64,
}

impl PruneIndex {
    /// Walks every group of `stats` whose target attribute is set in
    /// `targets` once, one shard per conditioning attribute on up to
    /// `threads` workers. `stats` must be the statistics of `ds`; cells of
    /// other attributes must not be pruned against the index (it holds
    /// no lists for them, and a read of one panics).
    pub(crate) fn build(
        ds: &Dataset,
        stats: &CooccurStats,
        targets: &[bool],
        tau_min: f64,
        min_support: u32,
        threads: usize,
    ) -> Self {
        let n = ds.schema().len();
        debug_assert_eq!(stats.tuple_count(), ds.tuple_count());
        debug_assert!(ds
            .schema()
            .attrs()
            .all(|a| !targets[a.index()] || stats.holds_target(a)));
        let at = |i: usize| u32::try_from(i).expect("prune index outgrew u32 offsets");
        let mut slots = vec![None; n];
        let mut held = 0;
        for (slot, _) in slots.iter_mut().zip(targets).filter(|&(_, &t)| t) {
            *slot = Some(held);
            held += 1;
        }
        let threads = holo_parallel::sized_threads(threads, stats.group_count());
        let shards = holo_parallel::parallel_jobs(threads, n, |cond| {
            let cond = AttrId(cond as u16);
            let mut rows = vec![NO_ROW; stats.codes().len(cond)];
            let mut denom = Vec::new();
            for (code, row) in rows.iter_mut().enumerate() {
                let count = stats.code_count(cond, code as u32);
                if count >= min_support {
                    *row = denom.len() as u32;
                    denom.push(count);
                }
            }
            let mut lists = vec![(0u32, 0u32); denom.len() * held];
            let mut entries: Vec<(Sym, u32)> = Vec::new();
            stats.for_each_group_of(cond, |target, code, group| {
                let row = rows[code as usize];
                let Some(slot) = slots[target.index()].filter(|_| row != NO_ROW) else {
                    return;
                };
                let d = f64::from(denom[row as usize]);
                let start = entries.len();
                group.for_each(|v, count| {
                    if f64::from(count) / d >= tau_min {
                        entries.push((v, count));
                    }
                });
                lists[row as usize * held + slot] = (at(start), at(entries.len() - start));
            });
            Shard {
                rows,
                denom,
                lists,
                entries,
            }
        });
        PruneIndex {
            shards,
            slots,
            held,
            tau_min,
        }
    }

    /// Conditioning values indexed, over all attributes.
    pub(crate) fn rows(&self) -> usize {
        self.shards.iter().map(|s| s.denom.len()).sum()
    }

    /// `(value, count)` entries stored, over all lists.
    pub(crate) fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Algorithm 2 at `tau ≥ τ_min` for each of `cells`, in order, into one
    /// arena that keeps `cells` as its cells; sharded across up to
    /// `threads` workers (a cell reads only the dataset and the index, and
    /// the chunks append in input order, so the result is identical for
    /// every thread count). The values `asserted` for a cell that its
    /// pruned domain lacks follow it, in `asserted` order: `cells` and
    /// `asserted` must both ascend under `key`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prune_cells<K: Ord>(
        &self,
        ds: &Dataset,
        cells: Vec<CellRef>,
        asserted: &[(CellRef, Sym)],
        key: impl Fn(CellRef) -> K + Sync,
        tau: f64,
        max_domain: usize,
        threads: usize,
    ) -> CellDomains {
        // (A NaN τ keeps no candidate on any index.)
        debug_assert!(
            tau >= self.tau_min || tau.is_nan(),
            "index built above the requested τ"
        );
        debug_assert!(cells.is_sorted_by_key(|&cell| key(cell)));
        debug_assert!(asserted.is_sorted_by_key(|&(cell, _)| key(cell)));
        let chunks = holo_parallel::parallel_chunks(threads, &cells, |_, chunk| {
            // This chunk's assertions: those between its first and last cell.
            let (Some(&first), Some(&last)) = (chunk.first(), chunk.last()) else {
                return Vec::new();
            };
            let from = asserted.partition_point(|&(c, _)| key(c) < key(first));
            let to = asserted.partition_point(|&(c, _)| key(c) <= key(last));
            let mut arena = CellDomains::from_cells(Vec::new());
            let mut read = CellRead::new(self.shards.len());
            let mut rest = &asserted[from..to];
            for &cell in chunk {
                let start = arena.candidates.len();
                read.prune(self, ds, cell, tau, max_domain, &mut arena.candidates);
                let at = key(cell);
                let skip = rest.iter().take_while(|&&(c, _)| key(c) < at).count();
                let run = rest[skip..]
                    .iter()
                    .take_while(|&&(c, _)| key(c) == at)
                    .count();
                for &(_, v) in &rest[skip..skip + run] {
                    if !arena.candidates[start..].contains(&v) {
                        arena.candidates.push(v);
                    }
                }
                rest = &rest[skip + run..];
                arena.seal();
            }
            vec![arena]
        });
        let mut arena = CellDomains::from_cells(cells);
        for chunk in chunks {
            let base = arena.offsets[arena.offsets.len() - 1];
            arena.candidates.extend(chunk.candidates);
            let ends = chunk.offsets[1..].iter().map(|&end| base + end);
            arena.offsets.extend(ends);
        }
        let fits = u32::try_from(arena.candidates.len()).is_ok();
        assert!(fits, "domain arena outgrew u32 offsets");
        debug_assert_eq!(arena.offsets.len(), arena.cells.len() + 1);
        arena
    }
}

/// The scratch of one worker's Algorithm 2 reads: the shard row of each
/// conditioning value of the tuple in hand — resolved once per tuple, so
/// consecutive cells of one tuple share them — and the scored candidates.
struct CellRead {
    tuple: Option<TupleId>,
    rows: Vec<u32>,
    scored: Vec<(Sym, f64)>,
}

impl CellRead {
    fn new(attrs: usize) -> Self {
        CellRead {
            tuple: None,
            rows: vec![NO_ROW; attrs],
            scored: Vec::new(),
        }
    }

    /// Appends the candidate repairs of one cell to `out` (always ≥ 1: the
    /// initial value, first).
    fn prune(
        &mut self,
        index: &PruneIndex,
        ds: &Dataset,
        cell: CellRef,
        tau: f64,
        max_domain: usize,
        out: &mut Vec<Sym>,
    ) {
        let target = cell.attr.index();
        let Some(slot) = index.slots[target] else {
            panic!("no lists for {:?}", cell.attr);
        };
        // The initial value always survives pruning with top priority.
        let init = ds.cell_ref(cell);
        if max_domain <= 1 {
            out.push(init);
            return;
        }
        if self.tuple != Some(cell.tuple) {
            self.tuple = Some(cell.tuple);
            for ((cond, shard), row) in ds.schema().attrs().zip(&index.shards).zip(&mut self.rows) {
                // A null cell's NULL_CODE is past every code: no row.
                let code = ds.code(cell.tuple, cond);
                *row = shard.rows.get(code as usize).map_or(NO_ROW, |&row| row);
            }
        }
        let scored = &mut self.scored;
        scored.clear();
        for (cond, (shard, &row)) in index.shards.iter().zip(&self.rows).enumerate() {
            if cond == target || row == NO_ROW {
                continue;
            }
            let row = row as usize;
            let (start, len) = shard.lists[row * index.held + slot];
            let d = f64::from(shard.denom[row]);
            for &(v, count) in &shard.entries[start as usize..(start + len) as usize] {
                let p = f64::from(count) / d;
                if p >= tau {
                    scored.push((v, p));
                }
            }
        }
        // Singleton fast path: nothing but the initial value cleared τ.
        if scored.iter().all(|&(v, _)| v == init) {
            out.push(init);
            return;
        }
        scored.push((init, f64::INFINITY));
        // Max-merge: best conditional probability per candidate.
        scored.sort_unstable_by(|(s1, p1), (s2, p2)| s1.cmp(s2).then(p2.total_cmp(p1)));
        scored.dedup_by_key(|&mut (s, _)| s);
        // Ties break on the *value string*, not the symbol id: symbol ids
        // encode interning order — which a caller's load order, constraint
        // constants or dictionary values interned first all shift — so a
        // pool-dependent tie-break would let two pools holding the same
        // table disagree on domain order (and therefore on MAP ties).
        scored.sort_unstable_by(|(s1, p1), (s2, p2)| {
            p2.total_cmp(p1)
                .then_with(|| ds.value_str(*s1).cmp(ds.value_str(*s2)))
        });
        scored.truncate(max_domain);
        out.extend(scored.iter().map(|&(s, _)| s));
    }
}

/// Runs Algorithm 2 over the noisy cells, with the index build and the
/// per-cell reads dispatched across up to `threads` worker threads (`0` =
/// all cores); the result is identical for every thread count. Every
/// conditioning value counts (`compile` reads its own index, which skips
/// values seen fewer than
/// [`HoloConfig::min_cond_support`](crate::config::HoloConfig::min_cond_support)
/// times).
pub fn prune_domains_with_threads(
    ds: &Dataset,
    noisy: &[CellRef],
    stats: &CooccurStats,
    tau: f64,
    max_domain: usize,
    threads: usize,
) -> CellDomains {
    let every_attr = vec![true; ds.schema().len()];
    let index = PruneIndex::build(ds, stats, &every_attr, tau, 1, threads);
    let mut cells = noisy.to_vec();
    if !cells.is_sorted() {
        cells.sort_unstable();
    }
    cells.dedup();
    index.prune_cells(ds, cells, &[], |cell| cell, tau, max_domain, threads)
}

/// The domains of `cells`, in order, over an index of every attribute that
/// ignores conditioning values seen fewer than `min_support` times, with
/// the values `asserted` for a cell merged in (both in ascending cell
/// order).
#[cfg(test)]
pub(crate) fn prune_with_support(
    ds: &Dataset,
    cells: &[CellRef],
    stats: &CooccurStats,
    (tau, max_domain, min_support): (f64, usize, u32),
    asserted: &[(CellRef, Sym)],
    threads: usize,
) -> Vec<Vec<Sym>> {
    let every_attr = vec![true; ds.schema().len()];
    let index = PruneIndex::build(ds, stats, &every_attr, tau, min_support, threads);
    let cells = cells.to_vec();
    let arena = index.prune_cells(ds, cells, asserted, |c| c, tau, max_domain, threads);
    arena.iter().map(|(_, domain)| domain.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;
    use proptest::prelude::*;

    /// The row-scanning Algorithm 2 the index replaced, kept as the
    /// reference the proptests compare against: per (cell, partner
    /// attribute) it walks the whole group and scores every value.
    fn row_scan_prune_cell(
        ds: &Dataset,
        cell: CellRef,
        stats: &CooccurStats,
        tau: f64,
        max_domain: usize,
        min_support: u32,
    ) -> Vec<Sym> {
        let mut scores: FxHashMap<Sym, f64> = FxHashMap::default();
        for cond_attr in ds.schema().attrs() {
            if cond_attr == cell.attr {
                continue;
            }
            let v_cond = ds.cell(cell.tuple, cond_attr);
            if v_cond.is_null() {
                continue;
            }
            let denom = stats.count(cond_attr, v_cond);
            if denom == 0 || denom < min_support {
                continue;
            }
            if let Some(co) = stats.group(cond_attr, v_cond, cell.attr) {
                co.for_each(|v, count| {
                    let p = f64::from(count) / f64::from(denom);
                    if p >= tau {
                        let entry = scores.entry(v).or_insert(0.0);
                        if p > *entry {
                            *entry = p;
                        }
                    }
                });
            }
        }
        scores.insert(ds.cell_ref(cell), f64::INFINITY);
        let mut candidates: Vec<(Sym, f64)> = scores.into_iter().collect();
        candidates.sort_by(|(s1, p1), (s2, p2)| {
            p2.partial_cmp(p1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| ds.value_str(*s1).cmp(ds.value_str(*s2)))
        });
        candidates.truncate(max_domain.max(1));
        candidates.into_iter().map(|(s, _)| s).collect()
    }

    /// One cell through the public entry (index built at `tau`,
    /// `min_support = 1`).
    fn prune_cell(
        ds: &Dataset,
        cell: CellRef,
        stats: &CooccurStats,
        tau: f64,
        max_domain: usize,
    ) -> Vec<Sym> {
        prune_domains_with_threads(ds, &[cell], stats, tau, max_domain, 1)
            .get(cell)
            .to_vec()
    }

    /// Zip 60608 maps to Chicago in 3/4 tuples, Cicago in 1/4.
    fn city_ds() -> Dataset {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Chicago"]);
        ds.push_row(&["60608", "Cicago"]);
        ds.push_row(&["60609", "Evanston"]);
        ds
    }

    fn cell(ds: &Dataset, t: usize, attr: &str) -> CellRef {
        CellRef {
            tuple: t.into(),
            attr: ds.schema().attr_id(attr).unwrap(),
        }
    }

    #[test]
    fn threshold_filters_candidates() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 3, "City"); // the "Cicago" cell
                                      // τ=0.5: only Chicago (p=0.75) passes; initial value kept.
        let dom = prune_cell(&ds, c, &stats, 0.5, 50);
        let names: Vec<_> = dom.iter().map(|&s| ds.value_str(s)).collect();
        assert_eq!(names, vec!["Cicago", "Chicago"]);
        // τ=0.2: Cicago (p=0.25) also passes on merit.
        let dom = prune_cell(&ds, c, &stats, 0.2, 50);
        assert_eq!(dom.len(), 2);
        // τ=0.9: nothing passes; only the initial value remains.
        let dom = prune_cell(&ds, c, &stats, 0.9, 50);
        let names: Vec<_> = dom.iter().map(|&s| ds.value_str(s)).collect();
        assert_eq!(names, vec!["Cicago"]);
    }

    #[test]
    fn initial_value_always_first() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        for t in 0..ds.tuple_count() {
            let c = cell(&ds, t, "City");
            let dom = prune_cell(&ds, c, &stats, 0.1, 50);
            assert_eq!(dom[0], ds.cell_ref(c), "initial value leads the domain");
        }
    }

    #[test]
    fn max_domain_cap() {
        let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
        for i in 0..20 {
            ds.push_row(&["k".to_string(), format!("v{i}")]);
        }
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 0, "V");
        let dom = prune_cell(&ds, c, &stats, 0.0, 5);
        assert_eq!(dom.len(), 5);
        assert_eq!(dom[0], ds.cell_ref(c));
    }

    #[test]
    fn null_conditioning_cells_ignored() {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["", "Chicago"]);
        ds.push_row(&["", "Boston"]);
        let stats = CooccurStats::build(&ds);
        let c = cell(&ds, 0, "City");
        // No non-null conditioning cell: only the initial value.
        let dom = prune_cell(&ds, c, &stats, 0.0, 50);
        assert_eq!(dom.len(), 1);
    }

    #[test]
    fn prune_domains_covers_all_noisy_cells() {
        let ds = city_ds();
        let stats = CooccurStats::build(&ds);
        let noisy = [cell(&ds, 3, "City"), cell(&ds, 3, "Zip")];
        let domains = prune_domains_with_threads(&ds, &noisy, &stats, 0.5, 50, 1);
        assert_eq!(domains.len(), 2);
        assert!(domains.contains(noisy[0]));
        assert!(!domains.get(noisy[1]).is_empty());
        assert!(domains.total_candidates() >= 2);
    }

    /// The noisy/evidence sharing contract: an index built at `τ_min`
    /// answers any `τ ≥ τ_min` exactly as an index built at `τ` itself,
    /// while holding no more than `⌊1/τ_min⌋` entries per group.
    #[test]
    fn index_built_at_tau_min_answers_larger_taus() {
        let mut ds = Dataset::new(Schema::new(vec!["K", "L", "V"]));
        for i in 0..60u32 {
            ds.push_row(&[
                format!("k{}", i % 3),
                format!("l{}", i % 4),
                format!("v{}", (i * i + i / 7) % 11),
            ]);
        }
        let stats = CooccurStats::build(&ds);
        let cells: Vec<CellRef> = ds.cells().collect();
        let tau_min = 0.05;
        let shared = PruneIndex::build(&ds, &stats, &[true; 3], tau_min, 2, 1);
        for shard in &shared.shards {
            assert!(shard.lists.iter().all(|&(_, len)| len <= 20));
        }
        let mut shrank = false;
        for tau in [0.05, 0.1, 0.25, 0.3, 1.0 / 3.0, 0.5, 0.9, 1.0] {
            let own = PruneIndex::build(&ds, &stats, &[true; 3], tau, 2, 1);
            assert!(own.entries() <= shared.entries());
            shrank |= own.entries() < shared.entries();
            let read = |index: &PruneIndex| -> Vec<Vec<Sym>> {
                let arena = index.prune_cells(&ds, cells.clone(), &[], |c| c, tau, 4, 1);
                arena.iter().map(|(_, domain)| domain.to_vec()).collect()
            };
            let from_own = read(&own);
            assert_eq!(read(&shared), from_own, "τ = {tau}");
            // Several of these τ equal a group's probability exactly: the
            // `≥` boundary must match the row scan's.
            let reference: Vec<Vec<Sym>> = cells
                .iter()
                .map(|&c| row_scan_prune_cell(&ds, c, &stats, tau, 4, 2))
                .collect();
            assert_eq!(from_own, reference, "τ = {tau}");
        }
        assert!(shrank, "the sweep must cross some group's threshold");
    }

    /// A table with enough groups that the index build really shards
    /// across workers (the proptest tables stay under the sequential
    /// cutoff): threads 1 and 4 agree with each other and the reference.
    #[test]
    fn sharded_index_build_matches_sequential() {
        let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C"]));
        for i in 0..3000u32 {
            ds.push_row(&[
                format!("a{}", i % 1500),
                format!("b{}", (i * 7) % 1100),
                format!("c{}", i % 13),
            ]);
        }
        let stats = CooccurStats::build(&ds);
        assert!(stats.group_count() >= holo_parallel::MIN_PARALLEL_WORK);
        let cells: Vec<CellRef> = ds.cells().collect();
        let one = prune_with_support(&ds, &cells, &stats, (0.2, 6, 2), &[], 1);
        assert_eq!(
            prune_with_support(&ds, &cells, &stats, (0.2, 6, 2), &[], 4),
            one
        );
        for (&c, got) in cells.iter().zip(&one).step_by(97) {
            assert_eq!(*got, row_scan_prune_cell(&ds, c, &stats, 0.2, 6, 2));
        }
    }

    proptest! {
        /// Monotonicity: raising τ never grows a domain, and every domain
        /// contains the initial value.
        #[test]
        fn prop_monotone_in_tau(
            rows in proptest::collection::vec((0u8..4, 0u8..6), 1..40),
            t1 in 0.0f64..0.5,
            delta in 0.0f64..0.5
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
            for (k, v) in &rows {
                ds.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let stats = CooccurStats::build(&ds);
            let t2 = t1 + delta;
            for t in 0..rows.len() {
                let c = CellRef { tuple: t.into(), attr: holo_dataset::AttrId(1) };
                let d1 = prune_cell(&ds, c, &stats, t1, 100);
                let d2 = prune_cell(&ds, c, &stats, t2, 100);
                prop_assert!(d2.len() <= d1.len());
                prop_assert!(d1.contains(&ds.cell_ref(c)));
                prop_assert!(d2.contains(&ds.cell_ref(c)));
                // Subset: every τ₂ candidate also passes τ₁.
                for v in &d2 {
                    prop_assert!(d1.contains(v));
                }
            }
        }

        /// The index over the dense statistics gives Algorithm 2 exactly the
        /// naive row-scan reference's domains — same cells, same candidates,
        /// same order — across random datasets (with nulls; tuple 0 is all
        /// null after the update, so null initial values are always read)
        /// that went through an edit before the statistics were built
        /// (append → update in place: pool values no row holds), τ ∈
        /// [0, 0.6], `min_support` ∈ {1, 2, 3}, binding and slack
        /// `max_domain` caps and `max_domain = 1`, and thread counts
        /// {1, 4}. The arena also merges dictionary assertions as compile's
        /// used to, after pruning: on a stride of cells a value and the
        /// cell's own one (never repeated), and a fresh value on a cell the
        /// reference left a singleton, which gives it a second candidate.
        #[test]
        fn prop_prune_domains_dense_matches_naive(
            rows in proptest::collection::vec((0u8..5, 0u8..4, 0u8..4), 5..30),
            extra in proptest::collection::vec((0u8..5, 0u8..4, 0u8..4), 0..10),
            update_step in 2usize..5,
            tau in 0.0f64..0.6,
            min_support in 1u32..4,
            max_domain in 1usize..8,
            assert_step in 1usize..6,
        ) {
            // 0 encodes a null cell so codes and hash keys diverge early.
            let cs = |k: usize, v: u8| if v == 0 { String::new() } else { format!("a{k}v{v}") };
            let row = |r: &(u8, u8, u8)| vec![cs(0, r.0), cs(1, r.1), cs(2, r.2)];

            let mut ds = Dataset::new(Schema::new(vec!["a", "b", "c"]));
            for r in &rows {
                ds.push_row(&row(r));
            }
            let batch: Vec<Vec<String>> = extra.iter().map(&row).collect();
            ds.append_rows(&batch);
            // In-place update of a stride of rows.
            let new_rows: Vec<(TupleId, Vec<String>)> = (0..ds.tuple_count())
                .step_by(update_step)
                .map(|t| {
                    let i = t as u8;
                    (TupleId::from(t), row(&(i % 6, i % 3, i % 5)))
                })
                .collect();
            ds.update_rows(&new_rows);
            prop_assert!(ds.cell_ref(CellRef::new(0usize, 0usize)).is_null());
            let fresh = ds.intern("asserted-only");
            let picked: Vec<Sym> = (0..3).map(|k| ds.intern(&cs(k, 1))).collect();
            let stats = CooccurStats::build_with_opts(&ds, 4, false);

            // Every cell is "noisy": prune them all.
            let noisy: Vec<CellRef> = ds.cells().collect();
            for max_domain in [max_domain, 1] {
                let reference: Vec<Vec<Sym>> = noisy
                    .iter()
                    .map(|&c| row_scan_prune_cell(&ds, c, &stats, tau, max_domain, min_support))
                    .collect();
                let mut asserted: Vec<(CellRef, Sym)> = noisy
                    .iter()
                    .step_by(assert_step)
                    .flat_map(|&c| [(c, picked[c.attr.index()]), (c, ds.cell_ref(c))])
                    .collect();
                // Tuple 0's null cells keep only their initial value.
                let singleton = reference.iter().position(|d| d.len() == 1).unwrap();
                asserted.push((noisy[singleton], fresh));
                asserted.sort_by_key(|&(c, _)| c);
                let mut merged = reference;
                for &(c, v) in &asserted {
                    let domain = &mut merged[noisy.binary_search(&c).unwrap()];
                    if !domain.contains(&v) {
                        domain.push(v);
                    }
                }
                for threads in [1usize, 4] {
                    let params = (tau, max_domain, min_support);
                    let doms = prune_with_support(&ds, &noisy, &stats, params, &asserted, threads);
                    prop_assert_eq!(&doms, &merged);
                }
            }
        }

        /// Domains are duplicate-free.
        #[test]
        fn prop_no_duplicates(
            rows in proptest::collection::vec((0u8..3, 0u8..3), 1..30)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["K", "V"]));
            for (k, v) in &rows {
                ds.push_row(&[format!("k{k}"), format!("v{v}")]);
            }
            let stats = CooccurStats::build(&ds);
            let c = CellRef { tuple: 0usize.into(), attr: holo_dataset::AttrId(1) };
            let dom = prune_cell(&ds, c, &stats, 0.0, 100);
            let mut dedup = dom.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), dom.len());
        }
    }
}
