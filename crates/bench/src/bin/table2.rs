//! Reproduces **Table 2**: parameters of the evaluation datasets —
//! tuples, attributes, detected violations, noisy cells, and the number of
//! denial constraints.

use holo_bench::table::TableWriter;
use holo_bench::{build, Args, Scale};
use holo_constraints::{find_violations, noisy_cells, parse_constraints};
use holo_datagen::DatasetKind;

fn main() {
    holo_bench::exit_quietly_on_closed_stdout();
    let args = Args::parse(std::env::args());
    let scale = Scale {
        factor: args.scale,
        seed: args.seed,
        full: args.full,
    };
    println!("Table 2: Parameters of the data used for evaluation");
    println!(
        "(synthetic reproductions; scale ×{}, seed {})\n",
        args.scale, args.seed
    );

    let mut table = TableWriter::new(vec![
        "Parameter",
        "Hospital",
        "Flights",
        "Food",
        "Physicians",
    ]);
    let mut tuples = Vec::new();
    let mut attrs = Vec::new();
    let mut violations_row = Vec::new();
    let mut noisy_row = Vec::new();
    let mut ics = Vec::new();
    let mut errors_row = Vec::new();

    for kind in DatasetKind::all() {
        let mut gen = build(kind, scale);
        let cons = parse_constraints(&gen.constraints_text, &mut gen.dirty)
            .expect("generated constraints parse");
        let violations = find_violations(&gen.dirty, &cons);
        let noisy = noisy_cells(&violations);
        tuples.push(gen.dirty.tuple_count().to_string());
        attrs.push(gen.dirty.schema().len().to_string());
        violations_row.push(violations.len().to_string());
        noisy_row.push(noisy.len().to_string());
        ics.push(format!("{} DCs", cons.len()));
        errors_row.push(gen.errors.len().to_string());
    }

    let mut push = |name: &str, cells: Vec<String>| {
        let mut row = vec![name.to_string()];
        row.extend(cells);
        table.row(row);
    };
    push("Tuples", tuples);
    push("Attributes", attrs);
    push("Violations", violations_row);
    push("Noisy Cells", noisy_row);
    push("ICs", ics);
    push("Injected Errors (ground truth)", errors_row);
    table.print();
    println!("\nNote: \"Noisy cells do not necessarily correspond to erroneous cells\" (Table 2 caption).");
}
