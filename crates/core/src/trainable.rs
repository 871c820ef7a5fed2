//! Which attributes a run has to build, featurize and train.
//!
//! Every learnable weight of the model is scoped: `Occur { attr, .. }` (tied
//! over values, never over targets) to one target attribute, `DcViolation` to
//! the attributes one constraint mentions, `ExtDict` to the attributes one
//! dictionary asserts values for, `Source` to the whole schema. An evidence
//! variable trains only the weights its own rows name, so evidence of an
//! attribute that shares no weight — directly or through a chain of other
//! attributes' evidence — with an attribute that has a query variable
//! trains weights **no marginal ever reads**. [`trainable_attrs`] is that
//! reachability; `compile` draws evidence from its attributes only, and
//! the statistics pair blocks and τ-index lists are built for its target
//! attributes only.

use crate::config::HoloConfig;
use crate::features::MatchLookup;
use holo_constraints::ConstraintSet;
use holo_dataset::{AttrId, CellRef, CellSet};

/// One flag per attribute: set for the attributes `noisy` holds a cell of,
/// read off its per-attribute counts.
pub(crate) fn noisy_attrs(n_attrs: usize, noisy: &CellSet) -> Vec<bool> {
    (0..n_attrs)
        .map(|a| noisy.attr_len(AttrId(a as u16)) > 0)
        .collect()
}

/// One flag per attribute: set for the attributes of `cells`.
pub(crate) fn attrs_of(n_attrs: usize, cells: impl IntoIterator<Item = CellRef>) -> Vec<bool> {
    let mut mask = vec![false; n_attrs];
    for cell in cells {
        mask[cell.attr.index()] = true;
    }
    mask
}

/// Closes `seeds` (one flag per attribute) under "shares a learnable
/// weight with": the seed attributes, plus — to a fixpoint — every
/// attribute that
///
/// * is mentioned by a constraint that also mentions a trainable attribute
///   (the constraint's `DcViolation` weight; relaxed-DC variants only),
/// * has a cell asserted by a dictionary that also asserts a cell of a
///   trainable attribute (that dictionary's `ExtDict` weight), or
/// * exists at all, when [`HoloConfig::source`] is set (`Source` weights
///   are keyed by source, not by attribute).
///
/// The closure, not one step of it, is what makes the dropped evidence
/// separable: a kept attribute's softmax reads *all* its weights, so the
/// gradient of a weight a query row reads depends on every weight that
/// attribute's evidence shares with a third one. No seed, no attribute.
pub fn trainable_attrs(
    mut attrs: Vec<bool>,
    constraints: &ConstraintSet,
    matches: &MatchLookup,
    config: &HoloConfig,
) -> Vec<bool> {
    // The attribute sets tied together by one learnable weight each.
    let mut groups: Vec<Vec<AttrId>> = Vec::new();
    if config.variant.uses_dc_features() {
        groups.extend(constraints.iter().map(|(_, c)| c.attrs()));
    }
    let mut by_dict: Vec<Vec<AttrId>> = Vec::new();
    for (&(cell, _), dicts) in matches {
        for &dict in dicts {
            if by_dict.len() <= dict as usize {
                by_dict.resize(dict as usize + 1, Vec::new());
            }
            let group = &mut by_dict[dict as usize];
            if !group.contains(&cell.attr) {
                group.push(cell.attr);
            }
        }
    }
    groups.extend(by_dict);
    if config.source.is_some() {
        groups.push((0..attrs.len()).map(|a| AttrId(a as u16)).collect());
    }
    loop {
        let mut grew = false;
        for group in &groups {
            let held = group.iter().filter(|a| attrs[a.index()]).count();
            if 0 < held && held < group.len() {
                group.iter().for_each(|a| attrs[a.index()] = true);
                grew = true;
            }
        }
        if !grew {
            return attrs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_cells, compile_unfiltered, CompileInput, CompiledModel};
    use crate::config::ModelVariant;
    use crate::domain::prune_with_support;
    use crate::features::{DictIds, FeatureKey};
    use crate::pipeline::{self, Detection, PipelineContext};
    use crate::session::HoloClean;
    use holo_constraints::parse_constraints;
    use holo_datagen::{DatasetKind, GeneratedDataset};
    use holo_dataset::{CooccurStats, Dataset, FxHashMap, FxHashSet, Schema, Sym};
    use holo_external::MatchingDependency;
    use holo_factor::{learn, LearnConfig, VarId, WeightId};
    use std::collections::BTreeSet;

    /// The four generators, small, frozen the way the harness runs them:
    /// the paper's τ, the zip dictionary (m1/m2) where one exists, source
    /// features on Flights.
    fn generated() -> Vec<(DatasetKind, PipelineContext)> {
        let gens = [
            holo_datagen::hospital(holo_datagen::HospitalConfig {
                rows: 300,
                ..Default::default()
            }),
            holo_datagen::flights(holo_datagen::FlightsConfig {
                flights: 30,
                ..Default::default()
            }),
            holo_datagen::food(holo_datagen::FoodConfig {
                establishments: 40,
                ..Default::default()
            }),
            physicians(1500),
        ];
        gens.into_iter()
            .map(|gen| (gen.kind, frozen(gen)))
            .collect()
    }

    fn physicians(providers: usize) -> GeneratedDataset {
        holo_datagen::physicians(holo_datagen::PhysiciansConfig {
            providers,
            ..Default::default()
        })
    }

    fn frozen(gen: GeneratedDataset) -> PipelineContext {
        let mut config = HoloConfig::default()
            .with_tau(gen.kind.paper_tau())
            .with_threads(2);
        if gen.kind == DatasetKind::Flights {
            config = config.with_source("Flight", "Source");
        }
        let zip = ["Zip", "ZipCode"]
            .into_iter()
            .find(|name| gen.dirty.schema().attr_id(name).is_some());
        let mut session = HoloClean::new(gen.dirty)
            .with_constraint_text(&gen.constraints_text)
            .unwrap()
            .with_config(config);
        if let (Some(dict), Some(zip)) = (gen.dictionary, zip) {
            let md = |name, target, ext| {
                MatchingDependency::equalities(name, &[(zip, "Ext_Zip")], (target, ext))
            };
            let deps = vec![md("m1", "City", "Ext_City"), md("m2", "State", "Ext_State")];
            session = session.with_dictionary(dict, deps);
        }
        session.into_context().unwrap()
    }

    /// `compile` of `detection`'s noisy set over `stats`, or the
    /// all-attributes reference when `every_attr` is set.
    fn compile_over(
        cx: &PipelineContext,
        detection: &Detection,
        stats: &CooccurStats,
        every_attr: bool,
    ) -> CompiledModel {
        let input = CompileInput {
            ds: &cx.ds,
            constraints: &cx.constraints,
            noisy: &FxHashSet::default(),
            violations: &[],
            stats,
            matches: &cx.matches,
            config: &cx.config,
        };
        let noisy = &detection.noisy;
        match every_attr {
            false => compile_cells(&input, noisy),
            true => compile_unfiltered(&input, noisy),
        }
        .unwrap()
    }

    /// `compile` and the all-attributes reference, over full statistics.
    fn filtered_and_reference(cx: &PipelineContext) -> (CompiledModel, CompiledModel) {
        let detection = pipeline::detect(cx);
        let stats = CooccurStats::build_with_opts(&cx.ds, 1, false);
        (
            compile_over(cx, &detection, &stats, false),
            compile_over(cx, &detection, &stats, true),
        )
    }

    /// The learnable weights the design rows of `vars` name.
    fn learnable_of(
        model: &CompiledModel,
        vars: impl Iterator<Item = usize>,
    ) -> FxHashSet<WeightId> {
        let design = model.graph.design();
        vars.flat_map(|v| design.var_range(VarId(v as u32)))
            .flat_map(|r| design.row(r).iter().map(|&(w, _)| w))
            .filter(|&w| !model.weights.is_fixed(w))
            .collect()
    }

    /// Every key a design row of `cells` can name.
    fn keys_of(cx: &PipelineContext, cells: &[CellRef]) -> Vec<FeatureKey> {
        let ds = &cx.ds;
        let mut keys: FxHashSet<FeatureKey> = std::iter::once(FeatureKey::Minimality).collect();
        keys.extend(
            (0..cx.constraints.len()).map(|constraint| FeatureKey::DcViolation { constraint }),
        );
        for dict in cx.matches.values().flatten() {
            keys.insert(FeatureKey::ExtDict { dict: *dict });
        }
        if let Some(sc) = &cx.config.source {
            let sources = ds.active_domain(ds.schema().attr_id(&sc.source_attr).unwrap());
            keys.extend(
                sources
                    .into_iter()
                    .map(|source| FeatureKey::Source { source }),
            );
        }
        for cell in cells {
            keys.extend(ds.schema().attrs().map(|cond_attr| FeatureKey::Occur {
                attr: cell.attr,
                cond_attr,
            }));
        }
        keys.into_iter().collect()
    }

    /// Soundness, structural and exact. Against the reference that keeps
    /// all evidence: the filtered model's evidence is the reference's
    /// restricted to the trainable attributes, in order; every one of its
    /// variables — query and evidence — has the reference's domain, label
    /// and design rows up to one renaming of the weight ids; and no
    /// learnable weight named by a dropped evidence row is named by any
    /// kept row, query or evidence, so the training objective is two sums
    /// that share no parameter. Returns the query variable and dropped
    /// evidence counts.
    fn assert_sound(cx: &PipelineContext, label: &str) -> (usize, usize) {
        let (filtered, reference) = filtered_and_reference(cx);
        let n_attrs = cx.ds.schema().len();
        let queries = reference.query_cells.len();
        assert_eq!(filtered.query_cells, reference.query_cells, "{label}");
        let mask = trainable_attrs(
            attrs_of(n_attrs, reference.query_cells.iter().copied()),
            &cx.constraints,
            &cx.matches,
            &cx.config,
        );
        let trainable = mask.iter().filter(|&&t| t).count();
        assert_eq!(filtered.stats.trainable_attrs, trainable, "{label}");
        assert_eq!(filtered.stats.evidence_attrs_skipped, n_attrs - trainable);

        // Reference variable ids on either side of the filter.
        let (mut kept, mut dropped): (Vec<usize>, Vec<usize>) =
            ((0..queries).collect(), Vec::new());
        for (i, cell) in reference.evidence_cells.iter().enumerate() {
            let side = if mask[cell.attr.index()] {
                &mut kept
            } else {
                &mut dropped
            };
            side.push(queries + i);
        }
        let kept_cells: Vec<CellRef> = kept[queries..]
            .iter()
            .map(|&v| reference.evidence_cells[v - queries])
            .collect();
        assert_eq!(filtered.evidence_cells, kept_cells, "{label}");

        let mut renamed: FxHashMap<WeightId, WeightId> = FxHashMap::default();
        let mut inverse: FxHashMap<WeightId, WeightId> = FxHashMap::default();
        let (fd, rd) = (filtered.graph.design(), reference.graph.design());
        for (fv, &rv) in kept.iter().enumerate() {
            let (fv, rv) = (VarId(fv as u32), VarId(rv as u32));
            let (fvar, rvar) = (filtered.graph.var(fv), reference.graph.var(rv));
            assert_eq!(fvar.domain, rvar.domain, "{label} {fv:?}");
            assert_eq!((fvar.init, fvar.evidence), (rvar.init, rvar.evidence));
            for (fr, rr) in fd.var_range(fv).zip(rd.var_range(rv)) {
                assert_eq!(fd.row(fr).len(), rd.row(rr).len(), "{label} {fv:?}");
                for (&(fw, fx), &(rw, rx)) in fd.row(fr).iter().zip(rd.row(rr)) {
                    assert_eq!(fx.to_bits(), rx.to_bits(), "{label} {fv:?}");
                    assert_eq!(*renamed.entry(fw).or_insert(rw), rw, "{label} {fv:?}");
                    assert_eq!(*inverse.entry(rw).or_insert(fw), fw, "{label} {fv:?}");
                    let (fws, rws) = (&filtered.weights, &reference.weights);
                    assert_eq!(fws.get(fw).to_bits(), rws.get(rw).to_bits());
                    assert_eq!(fws.is_fixed(fw), rws.is_fixed(rw));
                }
            }
        }
        let shared: Vec<WeightId> = learnable_of(&reference, dropped.iter().copied())
            .intersection(&learnable_of(&reference, kept.iter().copied()))
            .copied()
            .collect();
        assert!(
            shared.is_empty(),
            "{label}: dropped evidence trains {shared:?}"
        );
        (queries, dropped.len())
    }

    #[test]
    fn dropped_evidence_shares_no_weight_with_a_kept_row_on_the_generators() {
        for (kind, mut cx) in generated() {
            let (queries, dropped) = assert_sound(&cx, kind.name());
            assert!(queries > 0, "{kind:?}");
            // Source weights tie every attribute: Flights drops nothing.
            assert_eq!(dropped == 0, kind == DatasetKind::Flights, "{kind:?}");
            cx.config.variant = ModelVariant::DcFactorsPartitioned;
            assert_sound(&cx, kind.name());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The same over random small tables: random FD sets (chains that
        /// reach an attribute only through another one's evidence
        /// included), two dictionaries asserting values for random cells,
        /// source features on or off, relaxed-DC features on or off.
        #[test]
        fn dropped_evidence_is_separable_on_random_tables(
            rows in proptest::collection::vec(((0u8..3, 0u8..3, 0u8..3), (0u8..3, 0u8..3, 0u8..3)), 24..48),
            fds in proptest::collection::vec(0usize..6, 0..4),
            asserted in proptest::collection::vec((0usize..24, 0usize..6, 0u32..2), 0..12),
            with_source in 0u8..4,
            with_dc_features in 0u8..3,
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C", "D", "E", "F"]));
            for &((a, b, c), (d, e, f)) in &rows {
                // A and B move together, so `A -> B` leaves clean cells.
                let b = if b == 0 { (a + 1) % 3 } else { a };
                ds.push_row(&[format!("a{a}"), format!("b{b}"), format!("c{c}"),
                    format!("d{d}"), format!("e{e}"), format!("f{f}")]);
            }
            let text = ["FD: A -> B", "FD: B -> C", "FD: C -> D", "FD: E -> F", "FD: A -> D",
                "t1&t2&EQ(t1.D,t2.D)&IQ(t1.E,t2.E)"];
            let text: Vec<&str> = fds.iter().map(|&i| text[i]).collect();
            let constraints = parse_constraints(&text.join("\n"), &mut ds).unwrap();
            let mut config = HoloConfig::default().with_tau(0.3).with_variant(
                if with_dc_features == 0 { ModelVariant::DcFactors } else { ModelVariant::DcFeats },
            );
            if with_source == 0 {
                config = config.with_source("A", "F");
            }
            let mut cx = PipelineContext::new(ds, constraints, config);
            let novel = cx.ds.intern("dictionary-says");
            for &(t, attr, dict) in &asserted {
                let cell = CellRef { tuple: t.into(), attr: AttrId(attr as u16) };
                cx.matches.entry((cell, novel)).or_default().push(dict);
            }
            assert_sound(&cx, "random table");
        }
    }

    /// Compiled models, field by field (`registry` through every key a row
    /// of either can name).
    fn assert_same_model(cx: &PipelineContext, a: &CompiledModel, b: &CompiledModel, label: &str) {
        assert_eq!(a.query_cells, b.query_cells, "{label}");
        assert_eq!(a.evidence_cells, b.evidence_cells, "{label}");
        assert_eq!(a.graph.design(), b.graph.design(), "{label}");
        assert_eq!(a.weights, b.weights, "{label}");
        assert_eq!(a.registry.len(), b.registry.len(), "{label}");
        let cells: Vec<CellRef> = a
            .query_cells
            .iter()
            .chain(&a.evidence_cells)
            .copied()
            .collect();
        for (va, vb) in a.graph.vars().iter().zip(b.graph.vars()) {
            assert_eq!(va.domain, vb.domain, "{label}");
            assert_eq!((va.init, va.evidence), (vb.init, vb.evidence), "{label}");
        }
        let keys = keys_of(cx, &cells);
        let named = keys.iter().filter(|k| a.registry.get(k).is_some()).count();
        assert_eq!(
            named,
            a.registry.len(),
            "{label}: every weight's key was enumerated"
        );
        for key in &keys {
            assert_eq!(a.registry.get(key), b.registry.get(key), "{label} {key:?}");
        }
    }

    /// `compile` over statistics that hold only the trainable targets ≡
    /// `compile` over `build_with_opts` statistics — registry, design
    /// matrix, variables — and `pipeline::compile_model` is the former, on
    /// the four generators and a Physicians table large enough for CSR
    /// pair blocks.
    #[test]
    fn masked_statistics_compile_the_same_model() {
        let csr_arm = (DatasetKind::Physicians, frozen(physicians(2500)));
        for (i, (kind, cx)) in generated().into_iter().chain([csr_arm]).enumerate() {
            let detection = pipeline::detect(&cx);
            let n = cx.ds.schema().len();
            let targets = trainable_attrs(
                noisy_attrs(n, &detection.noisy),
                &cx.constraints,
                &cx.matches,
                &cx.config,
            );
            let held = targets.iter().filter(|&&t| t).count();
            assert_eq!(
                held == n,
                kind == DatasetKind::Flights,
                "{kind:?}: {held} of {n}"
            );
            let label = format!("{kind:?}");
            let full = CooccurStats::build_with_opts(&cx.ds, 2, false);
            let masked = CooccurStats::build_for_targets(&cx.ds, 2, &targets);
            let (all, built) = (full.stats_stats(), masked.stats_stats());
            assert_eq!(all.pairs as usize, n * (n - 1), "{label}");
            assert_eq!(built.pairs as usize, held * (n - 1), "{label}");
            // (The large table only for the arm the small ones cannot reach.)
            if i == 4 {
                assert!(built.csr_pairs > 0, "{label}: {built:?} of {all:?}");
            }
            let over_full = compile_over(&cx, &detection, &full, false);
            let over_masked = compile_over(&cx, &detection, &masked, false);
            assert_same_model(&cx, &over_full, &over_masked, &label);
            let (piped, gauges) = pipeline::compile_model(&cx, &detection).unwrap();
            assert_same_model(&cx, &over_full, &piped, &label);
            assert_eq!(gauges.pairs, built.pairs, "{label}");
        }
    }

    /// Separability, numeric: trained as one full-batch minibatch at a
    /// convergent rate (the summed gradient of a weight the dropped
    /// evidence never names is then the same sum, up to the order its
    /// addends meet), every learnable weight a query row reads agrees
    /// between the filtered and the all-evidence model to 1e-9, compared
    /// by `FeatureKey` — and training moved those weights at all.
    #[test]
    fn query_weights_train_the_same_without_the_dropped_evidence() {
        for (kind, cx) in generated() {
            let (filtered, reference) = filtered_and_reference(&cx);
            let config = LearnConfig {
                epochs: 12,
                learning_rate: 1.0 / reference.evidence_cells.len() as f64,
                minibatch: usize::MAX,
                ..LearnConfig::default()
            };
            let train = |model: &CompiledModel| {
                let mut weights = model.weights.clone();
                let stats = learn::train_with_threads(&model.graph, &mut weights, &config, 1);
                assert_eq!(stats.minibatches, config.epochs, "{kind:?}: full batches");
                weights
            };
            let (fw, rw) = (train(&filtered), train(&reference));
            let (mut compared, mut moved) = (0, 0.0f64);
            // The registry numbers keys no row names too; compare the
            // weights some design row names.
            let named: FxHashSet<WeightId> =
                filtered.graph.design().weight_ids().into_iter().collect();
            for key in keys_of(&cx, &filtered.query_cells) {
                let Some(f) = filtered.registry.get(&key).filter(|f| named.contains(f)) else {
                    continue;
                };
                let r = reference.registry.get(&key).expect("a kept row's key");
                if fw.is_fixed(f) {
                    continue;
                }
                let gap = (fw.get(f) - rw.get(r)).abs();
                assert!(
                    gap <= 1e-9,
                    "{kind:?} {key:?}: {} vs {}",
                    fw.get(f),
                    rw.get(r)
                );
                compared += 1;
                moved = moved.max((fw.get(f) - filtered.weights.get(f)).abs());
            }
            assert!(
                compared > 0 && moved > 1e-4,
                "{kind:?}: {compared} weights, moved {moved}"
            );
        }
    }

    /// A weight's id is a function of its key: hospital and a copy with
    /// its rows reversed put variables in the same attributes, so they
    /// number the same keys in the same order, although their cells meet
    /// the keys in a different order.
    #[test]
    fn weight_ids_are_a_function_of_the_key() {
        let hospital = || {
            holo_datagen::hospital(holo_datagen::HospitalConfig {
                rows: 300,
                ..Default::default()
            })
        };
        let reversed = {
            let gen = hospital();
            let mut dirty = Dataset::new(gen.dirty.schema().clone());
            for t in gen.dirty.tuples().collect::<Vec<_>>().into_iter().rev() {
                let row: Vec<&str> = gen
                    .dirty
                    .schema()
                    .attrs()
                    .map(|a| gen.dirty.cell_str(t, a))
                    .collect();
                dirty.push_row(&row);
            }
            GeneratedDataset { dirty, ..gen }
        };
        let compiled = |cx: &PipelineContext| {
            pipeline::compile_model(cx, &pipeline::detect(cx))
                .unwrap()
                .0
        };
        let (a, b) = (compiled(&frozen(hospital())), compiled(&frozen(reversed)));
        let attrs = |model: &CompiledModel| -> BTreeSet<AttrId> {
            let cells = model.query_cells.iter().chain(&model.evidence_cells);
            cells.map(|cell| cell.attr).collect()
        };
        assert_eq!(attrs(&a), attrs(&b), "the same attributes hold variables");
        assert_ne!(a.query_cells, b.query_cells, "the cells differ");
        assert!(a.registry.len() > 1);
        assert_eq!(a.registry.keys(), b.registry.keys());
    }

    /// A compiled model names at most one weight per ordered attribute
    /// pair, constraint, dictionary and source, plus the minimality prior
    /// and the DC-factor weight — whatever the table's size.
    #[test]
    fn registry_is_bounded_by_the_tied_keys_on_the_generators() {
        for (kind, mut cx) in generated() {
            let n = cx.ds.schema().len();
            let dictionaries: FxHashSet<u32> = cx.matches.values().flatten().copied().collect();
            let sources = cx.config.source.as_ref().map_or(0, |sc| {
                let attr = cx.ds.schema().attr_id(&sc.source_attr).unwrap();
                cx.ds.active_domain(attr).len()
            });
            let bound = n * (n - 1) + cx.constraints.len() + dictionaries.len() + sources + 2;
            for variant in [
                ModelVariant::DcFeats,
                ModelVariant::DcFeatsDcFactorsPartitioned,
            ] {
                cx.config.variant = variant;
                let (model, _) = pipeline::compile_model(&cx, &pipeline::detect(&cx)).unwrap();
                let keys = model.registry.keys().iter();
                let occur = keys
                    .filter(|key| matches!(key, FeatureKey::Occur { .. }))
                    .count();
                let label = format!("{kind:?} {variant:?}: {} of {bound}", model.registry.len());
                assert!(model.registry.len() <= bound, "{label}");
                assert!(0 < occur && occur <= n * (n - 1), "{label}: {occur} Occur");
            }
        }
    }

    struct Flags(CellRef);

    impl holo_detect::Detector for Flags {
        fn name(&self) -> &str {
            "flags one cell"
        }
        fn detect(&self, _: &Dataset) -> FxHashSet<CellRef> {
            std::iter::once(self.0).collect()
        }
    }

    /// A cell flagged (by an extra detector) in a DC-free attribute, with
    /// ≥ 2 candidates, makes that attribute trainable again: its pair
    /// blocks are built and its evidence is back.
    #[test]
    fn a_flagged_cell_makes_its_attribute_trainable_again() {
        let (_, mut cx) = generated().swap_remove(0);
        let n = cx.ds.schema().len();
        let detection = pipeline::detect(&cx);
        let (before, gauges_before) = pipeline::compile_model(&cx, &detection).unwrap();
        let score = cx.ds.schema().attr_id("Score").unwrap();
        assert!(before.evidence_cells.iter().all(|c| c.attr != score));
        assert!(before.stats.evidence_attrs_skipped > 0);

        // A clean Score cell Algorithm 2 leaves a choice for at the noisy τ.
        let stats = CooccurStats::build(&cx.ds);
        let config = &cx.config;
        let cell = cx
            .ds
            .tuples()
            .map(|tuple| CellRef { tuple, attr: score })
            .find(|&cell| {
                let params = (config.tau, config.max_domain, config.min_cond_support);
                prune_with_support(&cx.ds, &[cell], &stats, params, &[], 1)[0].len() >= 2
            })
            .expect("some Score cell has two candidates");
        cx.extra_detectors.push(Box::new(Flags(cell)));
        let detection = pipeline::detect(&cx);
        assert!(detection.noisy.contains(cell));
        let (after, gauges_after) = pipeline::compile_model(&cx, &detection).unwrap();
        assert!(after.query_cells.contains(&cell));
        assert!(after.evidence_cells.iter().any(|c| c.attr == score));
        assert_eq!(
            after.stats.trainable_attrs,
            before.stats.trainable_attrs + 1
        );
        assert_eq!(gauges_after.pairs, gauges_before.pairs + (n as u64 - 1));
        assert_sound(&cx, "hospital with a flagged Score cell");
    }

    /// The closure on a hand-built schema: one step is not enough, a
    /// seedless group stays out, and each clause pulls its attributes in.
    #[test]
    fn closure_follows_shared_weights_to_a_fixpoint() {
        let mut ds = Dataset::new(Schema::new(vec!["A", "B", "C", "D", "E", "F"]));
        ds.push_row(&["a", "b", "c", "d", "e", "f"]);
        let constraints = parse_constraints("FD: A -> B\nFD: B -> C\nFD: D -> E", &mut ds).unwrap();
        let seeds = |names: &[&str]| {
            let mut mask = vec![false; 6];
            for name in names {
                mask[ds.schema().attr_id(name).unwrap().index()] = true;
            }
            mask
        };
        let cell = |attr: usize| CellRef {
            tuple: 0usize.into(),
            attr: AttrId(attr as u16),
        };
        let none = MatchLookup::default();
        let config = HoloConfig::default();
        let close = |s: &[&str], m: &MatchLookup, c: &HoloConfig| {
            trainable_attrs(seeds(s), &constraints, m, c)
        };

        assert_eq!(close(&["C"], &none, &config), seeds(&["A", "B", "C"]));
        assert_eq!(close(&["F"], &none, &config), seeds(&["F"]));
        assert_eq!(close(&[], &none, &config), seeds(&[]));
        let factors = config.clone().with_variant(ModelVariant::DcFactors);
        assert_eq!(
            close(&["C"], &none, &factors),
            seeds(&["C"]),
            "no DcViolation weight"
        );
        // Dictionary 0 asserts cells of C and F, dictionary 1 of D only.
        let mut matches = MatchLookup::default();
        matches.insert((cell(2), Sym(1)), DictIds::from_iter([0]));
        matches.insert((cell(5), Sym(1)), DictIds::from_iter([0]));
        matches.insert((cell(3), Sym(1)), DictIds::from_iter([1]));
        assert_eq!(
            close(&["F"], &matches, &config),
            seeds(&["A", "B", "C", "F"])
        );
        assert_eq!(close(&["E"], &matches, &config), seeds(&["D", "E"]));
        let sourced = config.clone().with_source("A", "F");
        assert_eq!(close(&["E"], &none, &sourced), vec![true; 6]);
        assert_eq!(close(&[], &none, &sourced), seeds(&[]));
    }
}
