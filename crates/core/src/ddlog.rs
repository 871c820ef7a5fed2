//! DDlog program rendering (§3.2, §4.2).
//!
//! The original HoloClean compiles its model to DDlog, DeepDive's
//! declarative language; this reproduction grounds the model directly, but
//! renders the equivalent DDlog program for inspection — the rules are the
//! clearest specification of what the compiler built, and the rendering is
//! exercised by tests so it cannot drift from the implementation.

use crate::compile::DC_FACTOR_WEIGHT;
use crate::config::HoloConfig;
use holo_constraints::ast::{Op, Operand, TupleVar};
use holo_constraints::ConstraintSet;
use holo_dataset::Dataset;
use std::fmt::Write as _;

fn op_str(op: Op) -> String {
    match op {
        Op::Eq => "=".to_string(),
        Op::Neq => "!=".to_string(),
        Op::Lt => "<".to_string(),
        Op::Gt => ">".to_string(),
        Op::Leq => "<=".to_string(),
        Op::Geq => ">=".to_string(),
        Op::Sim(t) => format!("~{t}"),
    }
}

/// Renders the DDlog program equivalent to the compiled model: the random
/// variable declaration, one rule per signal (§4.2), the Algorithm 1
/// denial-constraint rules, and — when the §5.2 relaxation is active — the
/// decomposed single-variable rules of Example 6.
pub fn render_program(ds: &Dataset, constraints: &ConstraintSet, config: &HoloConfig) -> String {
    let mut out = String::new();
    let attr = |a: holo_dataset::AttrId| ds.schema().attr_name(a).to_string();

    out.push_str("// Random variable declaration (one categorical variable per cell)\n");
    out.push_str("Value?(t, a, d) :- Domain(t, a, d)\n\n");

    out.push_str("// Quantitative statistics (weight per attribute pair, value P(d | v'))\n");
    out.push_str("Value?(t, a, d) :- HasFeature(t, a, f = (a', v')) weight = w(a, a')\n\n");

    out.push_str("// Minimality prior (fixed weight)\n");
    let _ = writeln!(
        out,
        "Value?(t, a, d) :- InitValue(t, a, d) weight = {}\n",
        config.minimality_weight
    );

    out.push_str("// External data (weight per dictionary)\n");
    out.push_str("Value?(t, a, d) :- Matched(t, a, d, k) weight = w(k)\n\n");

    if config.source.is_some() {
        out.push_str("// Source reliability (weight per source)\n");
        out.push_str("Value?(t, a, d) :- AssertedBy(t, a, d, s) weight = w(s)\n\n");
    }

    out.push_str("// Denial constraints\n");
    for (sigma, c) in constraints.iter() {
        let _ = writeln!(out, "// sigma_{sigma}: {}", c.name);
        if config.variant.uses_dc_factors() {
            // Algorithm 1: the joint-factor rule.
            let mut head_atoms = Vec::new();
            let mut scope = Vec::new();
            for (k, p) in c.predicates.iter().enumerate() {
                let lhs_tuple = match p.lhs_tuple {
                    TupleVar::T1 => "t1",
                    TupleVar::T2 => "t2",
                };
                head_atoms.push(format!(
                    "Value?({lhs_tuple}, {}, v{}a)",
                    attr(p.lhs_attr),
                    k + 1
                ));
                match p.rhs {
                    Operand::Cell(tv, a) => {
                        let rhs_tuple = match tv {
                            TupleVar::T1 => "t1",
                            TupleVar::T2 => "t2",
                        };
                        head_atoms.push(format!("Value?({rhs_tuple}, {}, v{}b)", attr(a), k + 1));
                        scope.push(format!("v{}a {} v{}b", k + 1, op_str(p.op), k + 1));
                    }
                    Operand::Const(sym) => {
                        scope.push(format!(
                            "v{}a {} {:?}",
                            k + 1,
                            op_str(p.op),
                            ds.value_str(sym)
                        ));
                    }
                }
            }
            head_atoms.dedup();
            let body = if c.two_tuple {
                "Tuple(t1), Tuple(t2)"
            } else {
                "Tuple(t1)"
            };
            let _ = writeln!(
                out,
                "!({}) :- {body}, [{}] weight = {DC_FACTOR_WEIGHT}",
                head_atoms.join(" ^ "),
                scope.join(", "),
            );
        }
        if config.variant.uses_dc_features() && c.two_tuple {
            // §5.2 / Example 6: one decomposed rule per Value? position,
            // with every other predicate read from InitValue.
            for (k, p) in c.predicates.iter().enumerate() {
                let lhs_tuple = match p.lhs_tuple {
                    TupleVar::T1 => "t1",
                    TupleVar::T2 => "t2",
                };
                let mut body_atoms = vec!["Tuple(t1)".to_string(), "Tuple(t2)".to_string()];
                let mut scope = vec!["t1 != t2".to_string()];
                for (j, q) in c.predicates.iter().enumerate() {
                    let q_tuple = match q.lhs_tuple {
                        TupleVar::T1 => "t1",
                        TupleVar::T2 => "t2",
                    };
                    if j != k {
                        body_atoms.push(format!(
                            "InitValue({q_tuple}, {}, u{}a)",
                            attr(q.lhs_attr),
                            j + 1
                        ));
                    }
                    match q.rhs {
                        Operand::Cell(tv, a) => {
                            let rhs_tuple = match tv {
                                TupleVar::T1 => "t1",
                                TupleVar::T2 => "t2",
                            };
                            body_atoms.push(format!(
                                "InitValue({rhs_tuple}, {}, u{}b)",
                                attr(a),
                                j + 1
                            ));
                            scope.push(format!("u{}a {} u{}b", j + 1, op_str(q.op), j + 1));
                        }
                        Operand::Const(sym) => scope.push(format!(
                            "u{}a {} {:?}",
                            j + 1,
                            op_str(q.op),
                            ds.value_str(sym)
                        )),
                    }
                }
                body_atoms.dedup();
                let _ = writeln!(
                    out,
                    "!Value?({lhs_tuple}, {}, u{}a) :- {}, [{}] weight = w(sigma_{sigma})",
                    attr(p.lhs_attr),
                    k + 1,
                    body_atoms.join(", "),
                    scope.join(", "),
                );
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use holo_constraints::parse_constraints;
    use holo_dataset::Schema;

    fn setup() -> (Dataset, ConstraintSet) {
        let mut ds = Dataset::new(Schema::new(vec!["Zip", "City"]));
        ds.push_row(&["60608", "Chicago"]);
        let cons = parse_constraints("FD: Zip -> City", &mut ds).unwrap();
        (ds, cons)
    }

    #[test]
    fn relaxed_program_has_example6_rules() {
        let (ds, cons) = setup();
        let config = HoloConfig::default().with_variant(ModelVariant::DcFeats);
        let program = render_program(&ds, &cons, &config);
        // The Example 6 decomposition: one !Value? rule per predicate,
        // with InitValue bodies.
        assert_eq!(program.matches("!Value?(").count(), 2);
        assert!(program.contains("InitValue(t2, Zip"));
        assert!(program.contains("weight = w(sigma_0)"));
        // No joint-factor rules in the relaxed variant.
        assert!(!program.contains(" ^ "));
    }

    #[test]
    fn factor_program_has_algorithm1_rules() {
        let (ds, cons) = setup();
        let config = HoloConfig::default().with_variant(ModelVariant::DcFactors);
        let program = render_program(&ds, &cons, &config);
        assert!(program.contains("!(Value?(t1, Zip, v1a) ^ Value?(t2, Zip, v1b)"));
        assert!(program.contains("Tuple(t1), Tuple(t2)"));
        assert!(program.contains(&format!("weight = {DC_FACTOR_WEIGHT}")));
    }

    #[test]
    fn hybrid_program_has_both() {
        let (ds, cons) = setup();
        let config = HoloConfig::default().with_variant(ModelVariant::DcFeatsDcFactors);
        let program = render_program(&ds, &cons, &config);
        assert!(program.contains(" ^ "));
        assert!(program.contains("!Value?("));
    }

    #[test]
    fn universal_rules_always_present() {
        let (ds, cons) = setup();
        let config = HoloConfig::default();
        let program = render_program(&ds, &cons, &config);
        assert!(program.contains("Value?(t, a, d) :- Domain(t, a, d)"));
        assert!(program.contains("HasFeature(t, a, f = (a', v')) weight = w(a, a')"));
        assert!(program.contains("InitValue(t, a, d) weight = 0.5"));
        assert!(program.contains("Matched(t, a, d, k) weight = w(k)"));
        assert!(
            !program.contains("AssertedBy"),
            "no source rule unless configured"
        );
        let with_source = render_program(
            &ds,
            &cons,
            &HoloConfig::default().with_source("Zip", "City"),
        );
        assert!(with_source.contains("AssertedBy"));
    }

    #[test]
    fn constant_predicates_render() {
        let mut ds = Dataset::new(Schema::new(vec!["State"]));
        ds.push_row(&["IL"]);
        let cons = parse_constraints("t1&EQ(t1.State,\"XX\")", &mut ds).unwrap();
        let config = HoloConfig::default().with_variant(ModelVariant::DcFactors);
        let program = render_program(&ds, &cons, &config);
        assert!(program.contains("v1a = \"XX\""));
        assert!(program.contains("Tuple(t1)"));
    }
}
