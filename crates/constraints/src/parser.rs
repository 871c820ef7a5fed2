//! Textual constraint format.
//!
//! Two surface syntaxes are accepted, one per line (blank lines and `#`
//! comments skipped):
//!
//! * **Denial constraints**, in the convention used by the HoloClean
//!   research code: `t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)`.
//!   Operators: `EQ` (=), `IQ` (≠), `LT` (<), `GT` (>), `LTE` (≤),
//!   `GTE` (≥), `SIM` (≈, default threshold 0.8, override as `SIM0.9`;
//!   a threshold outside `[0, 1]` is an error).
//!   Operands are `t1.Attr`, `t2.Attr`, or a quoted constant `"IL"`.
//!   Declaring only `t1` gives a single-tuple constraint.
//! * **Functional-dependency sugar**: `FD: Zip -> City, State` expands to
//!   one DC per right-hand attribute, exactly as Example 2 of the paper:
//!   `∀t1,t2 ¬(t1.Zip = t2.Zip ∧ t1.City ≠ t2.City)` etc. Composite
//!   left-hand sides use commas: `FD: City, State, Address -> Zip`.

use crate::ast::{ConstraintSet, DenialConstraint, Op, Operand, Predicate, TupleVar};
use holo_dataset::Dataset;
use std::fmt;

/// Errors from constraint parsing/binding.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// General syntax error with context.
    Syntax(String),
    /// Attribute not present in the dataset schema.
    UnknownAttribute(String),
    /// A predicate referenced `t2` but the constraint only declared `t1`.
    UndeclaredTuple(String),
    /// An unknown operator token.
    UnknownOp(String),
    /// A `SIM` token whose threshold is a number but not a finite one in
    /// `[0, 1]` (`SIM-1`, `SIM1.5`, `SIMnan`, `SIMinf`).
    SimThreshold(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(msg) => write!(f, "syntax error: {msg}"),
            ParseError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            ParseError::UndeclaredTuple(t) => write!(f, "undeclared tuple variable {t:?}"),
            ParseError::UnknownOp(op) => write!(f, "unknown operator {op:?}"),
            ParseError::SimThreshold(op) => {
                write!(f, "similarity threshold of {op:?} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a single constraint line (DC or FD sugar). FD lines may expand to
/// several constraints.
pub fn parse_constraint(line: &str, ds: &mut Dataset) -> Result<Vec<DenialConstraint>, ParseError> {
    let line = line.trim();
    if let Some(fd) = line.strip_prefix("FD:") {
        parse_fd(fd, ds)
    } else {
        parse_dc(line, ds).map(|c| vec![c])
    }
}

/// Parses a multi-line constraint program into a [`ConstraintSet`].
pub fn parse_constraints(text: &str, ds: &mut Dataset) -> Result<ConstraintSet, ParseError> {
    let mut set = ConstraintSet::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        for c in parse_constraint(line, ds)? {
            set.push(c);
        }
    }
    Ok(set)
}

fn parse_fd(body: &str, ds: &mut Dataset) -> Result<Vec<DenialConstraint>, ParseError> {
    let (lhs, rhs) = body
        .split_once("->")
        .ok_or_else(|| ParseError::Syntax(format!("FD missing '->': {body:?}")))?;
    let lhs_attrs: Vec<&str> = lhs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let rhs_attrs: Vec<&str> = rhs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if lhs_attrs.is_empty() || rhs_attrs.is_empty() {
        return Err(ParseError::Syntax(format!("FD with empty side: {body:?}")));
    }
    let mut out = Vec::with_capacity(rhs_attrs.len());
    for rhs_attr in &rhs_attrs {
        let mut predicates = Vec::with_capacity(lhs_attrs.len() + 1);
        for a in &lhs_attrs {
            let attr = ds
                .schema()
                .attr_id(a)
                .ok_or_else(|| ParseError::UnknownAttribute((*a).to_string()))?;
            predicates.push(Predicate {
                lhs_tuple: TupleVar::T1,
                lhs_attr: attr,
                op: Op::Eq,
                rhs: Operand::Cell(TupleVar::T2, attr),
            });
        }
        let attr = ds
            .schema()
            .attr_id(rhs_attr)
            .ok_or_else(|| ParseError::UnknownAttribute((*rhs_attr).to_string()))?;
        predicates.push(Predicate {
            lhs_tuple: TupleVar::T1,
            lhs_attr: attr,
            op: Op::Neq,
            rhs: Operand::Cell(TupleVar::T2, attr),
        });
        out.push(DenialConstraint {
            name: format!("FD: {} -> {}", lhs_attrs.join(","), rhs_attr),
            two_tuple: true,
            predicates,
        });
    }
    Ok(out)
}

fn parse_dc(line: &str, ds: &mut Dataset) -> Result<DenialConstraint, ParseError> {
    let parts = split_top_level(line);
    let mut iter = parts.iter().map(String::as_str).peekable();
    let mut two_tuple = false;
    let mut declared_t1 = false;
    // Leading tuple variable declarations.
    while let Some(&part) = iter.peek() {
        match part.trim() {
            "t1" => {
                declared_t1 = true;
                iter.next();
            }
            "t2" => {
                two_tuple = true;
                iter.next();
            }
            _ => break,
        }
    }
    if !declared_t1 {
        return Err(ParseError::Syntax(format!(
            "constraint must declare t1 first: {line:?}"
        )));
    }
    let mut predicates = Vec::new();
    for part in iter {
        predicates.push(parse_predicate(part.trim(), two_tuple, ds)?);
    }
    if predicates.is_empty() {
        return Err(ParseError::Syntax(format!(
            "constraint has no predicates: {line:?}"
        )));
    }
    Ok(DenialConstraint {
        name: line.to_string(),
        two_tuple,
        predicates,
    })
}

/// Splits on `&` that are not inside parentheses or quotes.
fn split_top_level(line: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_quotes = false;
    let mut current = String::new();
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            '(' if !in_quotes => {
                depth += 1;
                current.push(c);
            }
            ')' if !in_quotes => {
                depth = depth.saturating_sub(1);
                current.push(c);
            }
            '&' if depth == 0 && !in_quotes => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        parts.push(current);
    }
    parts
}

fn parse_predicate(text: &str, two_tuple: bool, ds: &mut Dataset) -> Result<Predicate, ParseError> {
    let open = text
        .find('(')
        .ok_or_else(|| ParseError::Syntax(format!("predicate missing '(': {text:?}")))?;
    if !text.ends_with(')') {
        return Err(ParseError::Syntax(format!(
            "predicate missing ')': {text:?}"
        )));
    }
    let op_token = text[..open].trim();
    let op = parse_op(op_token)?;
    let body = &text[open + 1..text.len() - 1];
    let args = split_args(body);
    if args.len() != 2 {
        return Err(ParseError::Syntax(format!(
            "predicate needs exactly 2 arguments: {text:?}"
        )));
    }
    let (lhs_tuple, lhs_attr) = match parse_operand(&args[0], two_tuple, ds)? {
        Operand::Cell(tv, a) => (tv, a),
        Operand::Const(_) => {
            return Err(ParseError::Syntax(format!(
                "left operand must be a cell reference: {text:?}"
            )))
        }
    };
    let rhs = parse_operand(&args[1], two_tuple, ds)?;
    Ok(Predicate {
        lhs_tuple,
        lhs_attr,
        op,
        rhs,
    })
}

/// Splits predicate arguments on the top-level comma (commas inside quotes
/// are preserved).
fn split_args(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut in_quotes = false;
    let mut current = String::new();
    for c in body.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => parts.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

fn parse_op(token: &str) -> Result<Op, ParseError> {
    Ok(match token {
        "EQ" => Op::Eq,
        "IQ" | "NEQ" => Op::Neq,
        "LT" => Op::Lt,
        "GT" => Op::Gt,
        "LTE" | "LEQ" => Op::Leq,
        "GTE" | "GEQ" => Op::Geq,
        _ => {
            if let Some(rest) = token.strip_prefix("SIM") {
                let threshold = if rest.is_empty() {
                    0.8
                } else {
                    rest.parse::<f64>()
                        .map_err(|_| ParseError::UnknownOp(token.to_string()))?
                };
                // A similarity lies in [0, 1]: a threshold below it makes
                // every non-null pair similar, and NaN none.
                if !(0.0..=1.0).contains(&threshold) {
                    return Err(ParseError::SimThreshold(token.to_string()));
                }
                Op::Sim(threshold)
            } else {
                return Err(ParseError::UnknownOp(token.to_string()));
            }
        }
    })
}

fn parse_operand(text: &str, two_tuple: bool, ds: &mut Dataset) -> Result<Operand, ParseError> {
    let text = text.trim();
    if text.starts_with('"') {
        if !text.ends_with('"') || text.len() < 2 {
            return Err(ParseError::Syntax(format!(
                "unterminated constant: {text:?}"
            )));
        }
        let value = &text[1..text.len() - 1];
        return Ok(Operand::Const(ds.intern(value)));
    }
    let (tv_name, attr_name) = text.split_once('.').ok_or_else(|| {
        ParseError::Syntax(format!(
            "operand must be t1.Attr/t2.Attr/\"const\": {text:?}"
        ))
    })?;
    let tv = match tv_name.trim() {
        "t1" => TupleVar::T1,
        "t2" => {
            if !two_tuple {
                return Err(ParseError::UndeclaredTuple("t2".into()));
            }
            TupleVar::T2
        }
        other => return Err(ParseError::UndeclaredTuple(other.to_string())),
    };
    let attr = ds
        .schema()
        .attr_id(attr_name.trim())
        .ok_or_else(|| ParseError::UnknownAttribute(attr_name.trim().to_string()))?;
    Ok(Operand::Cell(tv, attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;

    fn ds() -> Dataset {
        Dataset::new(Schema::new(vec!["Zip", "City", "State", "Address"]))
    }

    #[test]
    fn parse_fd_expands_per_rhs_attr() {
        let mut ds = ds();
        let set = parse_constraints("FD: Zip -> City, State", &mut ds).unwrap();
        assert_eq!(set.len(), 2, "one DC per RHS attribute (Example 2)");
        let c = set.get(0);
        assert!(c.two_tuple);
        assert_eq!(c.predicates.len(), 2);
        assert_eq!(c.predicates[0].op, Op::Eq);
        assert_eq!(c.predicates[1].op, Op::Neq);
    }

    #[test]
    fn parse_composite_fd() {
        let mut ds = ds();
        let set = parse_constraints("FD: City, State, Address -> Zip", &mut ds).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(0).predicates.len(), 4);
    }

    #[test]
    fn parse_explicit_dc() {
        let mut ds = ds();
        let cs = parse_constraint("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)", &mut ds).unwrap();
        assert_eq!(cs.len(), 1);
        let c = &cs[0];
        assert!(c.two_tuple);
        assert_eq!(c.predicates.len(), 2);
        assert!(c.predicates[0].is_cross_tuple_eq());
    }

    #[test]
    fn parse_constant_predicate() {
        let mut ds = ds();
        let cs = parse_constraint("t1&EQ(t1.State,\"XX\")", &mut ds).unwrap();
        let c = &cs[0];
        assert!(!c.two_tuple);
        match c.predicates[0].rhs {
            Operand::Const(sym) => assert_eq!(ds.value_str(sym), "XX"),
            _ => panic!("expected constant"),
        }
    }

    #[test]
    fn parse_sim_with_threshold() {
        let mut ds = ds();
        let cs =
            parse_constraint("t1&t2&SIM0.9(t1.City,t2.City)&IQ(t1.Zip,t2.Zip)", &mut ds).unwrap();
        match cs[0].predicates[0].op {
            Op::Sim(t) => assert!((t - 0.9).abs() < 1e-12),
            other => panic!("expected SIM, got {other:?}"),
        }
        // Default threshold.
        let cs = parse_constraint("t1&t2&SIM(t1.City,t2.City)", &mut ds).unwrap();
        match cs[0].predicates[0].op {
            Op::Sim(t) => assert!((t - 0.8).abs() < 1e-12),
            other => panic!("expected SIM, got {other:?}"),
        }
    }

    /// A threshold is a finite number in [0, 1]; a number outside it is a
    /// typed error, a token that is no number stays an unknown operator.
    #[test]
    fn sim_threshold_must_lie_in_the_unit_interval() {
        let mut ds = ds();
        let mut parse =
            |op: &str| parse_constraint(&format!("t1&t2&{op}(t1.City,t2.City)"), &mut ds);
        for (op, want) in [
            ("SIM0", 0.0),
            ("SIM1", 1.0),
            ("SIM1.0", 1.0),
            ("SIM.5", 0.5),
        ] {
            assert_eq!(
                parse(op).unwrap()[0].predicates[0].op,
                Op::Sim(want),
                "{op}"
            );
        }
        for op in [
            "SIM-1", "SIM1.5", "SIM-0.1", "SIMnan", "SIMNaN", "SIMinf", "SIM-inf",
        ] {
            assert_eq!(
                parse(op).unwrap_err(),
                ParseError::SimThreshold(op.to_string()),
                "{op}"
            );
        }
        assert_eq!(
            parse("SIMx").unwrap_err(),
            ParseError::UnknownOp("SIMx".to_string())
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let mut ds = ds();
        let text = "# the zip FD\n\nFD: Zip -> City\n# done\n";
        let set = parse_constraints(text, &mut ds).unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn error_on_unknown_attribute() {
        let mut ds = ds();
        let err = parse_constraints("FD: Zap -> City", &mut ds).unwrap_err();
        assert_eq!(err, ParseError::UnknownAttribute("Zap".into()));
        let err = parse_constraint("t1&t2&EQ(t1.Zap,t2.Zap)", &mut ds).unwrap_err();
        assert_eq!(err, ParseError::UnknownAttribute("Zap".into()));
    }

    #[test]
    fn error_on_undeclared_t2() {
        let mut ds = ds();
        let err = parse_constraint("t1&EQ(t1.Zip,t2.Zip)", &mut ds).unwrap_err();
        assert_eq!(err, ParseError::UndeclaredTuple("t2".into()));
    }

    #[test]
    fn error_on_unknown_op() {
        let mut ds = ds();
        let err = parse_constraint("t1&t2&XYZ(t1.Zip,t2.Zip)", &mut ds).unwrap_err();
        assert_eq!(err, ParseError::UnknownOp("XYZ".into()));
    }

    #[test]
    fn error_on_malformed() {
        let mut ds = ds();
        assert!(parse_constraint("t2&EQ(t1.Zip,t2.Zip)", &mut ds).is_err());
        assert!(parse_constraint("t1&t2", &mut ds).is_err());
        assert!(parse_constraint("FD: -> City", &mut ds).is_err());
        assert!(parse_constraint("t1&t2&EQ(t1.Zip)", &mut ds).is_err());
        assert!(parse_constraint("t1&t2&EQ(\"a\",t2.Zip)", &mut ds).is_err());
    }

    #[test]
    fn constant_with_comma_inside_quotes() {
        let mut ds = ds();
        let cs = parse_constraint("t1&EQ(t1.City,\"Chicago, IL\")", &mut ds).unwrap();
        match cs[0].predicates[0].rhs {
            Operand::Const(sym) => assert_eq!(ds.value_str(sym), "Chicago, IL"),
            _ => panic!("expected constant"),
        }
    }

    #[test]
    fn fd_equivalent_to_explicit_dc() {
        let mut ds = ds();
        let fd = parse_constraint("FD: Zip -> City", &mut ds).unwrap();
        let dc = parse_constraint("t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)", &mut ds).unwrap();
        assert_eq!(fd[0].predicates, dc[0].predicates);
        assert_eq!(fd[0].two_tuple, dc[0].two_tuple);
    }

    use proptest::prelude::*;

    /// Line openers and fragments the robustness proptest splices between
    /// arbitrary characters: whole predicates and FD sides, so that many
    /// draws bind, and single grammar tokens, so that many nearly do.
    const HEADS: &[&str] = &["t1", "t1&t2", "t2&t1", "FD: Zip -> City", "FD:", "#", ""];
    const PIECES: &[&str] = &[
        "&EQ(t1.Zip,t2.Zip)",
        "&IQ(t1.City,\"Chi,cago\")",
        "&SIM0.9(t1.Address,t2.Address)",
        "&LT(t1.State,\"6\")",
        ", State",
        "-> Zip",
        "t1",
        "t2",
        "&",
        "(",
        ")",
        ",",
        ".",
        "\"",
        "EQ",
        "IQ",
        "SIM",
        "SIM-1",
        "FD:",
        "->",
        "City",
        "t2.",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// Robustness (ROADMAP item 9(a)): any text — grammar fragments
        /// mixed with arbitrary characters, multi-byte ones included —
        /// parses to `Ok` or a `ParseError`, never a panic, and every
        /// constraint it accepts has a predicate and names only schema
        /// attributes.
        #[test]
        fn prop_parse_never_panics_and_binds_only_schema_attributes(
            lines in proptest::collection::vec(
                (
                    0usize..HEADS.len(),
                    proptest::collection::vec(
                        (0usize..PIECES.len() + 4, "[ -~\té¡ß€中𝄞]{1,3}"),
                        0..5,
                    ),
                ),
                0..4,
            ),
        ) {
            let text: Vec<String> = lines
                .iter()
                .map(|(head, pieces)| {
                    let rest = pieces.iter().map(|(i, chars)| PIECES.get(*i).copied().unwrap_or(chars));
                    std::iter::once(HEADS[*head]).chain(rest).collect()
                })
                .collect();
            let text = text.join("\n");
            let mut ds = ds();
            let arity = ds.schema().len();
            if let Ok(set) = parse_constraints(&text, &mut ds) {
                for (_, c) in set.iter() {
                    prop_assert!(!c.predicates.is_empty(), "{text:?}");
                    for p in &c.predicates {
                        prop_assert!(p.lhs_attr.index() < arity, "{text:?}");
                        if let Operand::Cell(_, a) = p.rhs {
                            prop_assert!(a.index() < arity, "{text:?}");
                        }
                    }
                }
            }
        }
    }
}
