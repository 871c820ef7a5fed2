//! Minimal CSV reader/writer (RFC-4180 subset: quoted fields, `""` escapes,
//! CRLF tolerance). Implemented locally so realistic inputs can be loaded
//! without crates outside the allowed dependency set.
//!
//! Loading is the first cost every repair pays, and a stream pays it again
//! on every read. [`parse_dataset`] therefore makes one pass over the bytes
//! and builds no records: each field is interned straight from the input
//! into the table's [`ValuePool`](crate::ValuePool) — one arena and one
//! index, so a new value costs no allocation of its own — and each row's
//! symbols are coded onto the columns as the record ends. A field whose
//! text equals the field above it in its column reuses that symbol without
//! a lookup; grouped input repeats a lot (59–66 % of the cells of the
//! hospital, food and physicians generators). What the parse allocates
//! grows with the table only by doubling buffers.

use crate::error::DatasetError;
use crate::schema::Schema;
use crate::table::Dataset;
use crate::value::Sym;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Parses CSV text into records. The first record is the header.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>, DatasetError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut quote_start_line = 1usize;
    let mut line = 1usize;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                quote_start_line = line;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
            }
            '\r' => {
                // Swallow the \r of a CRLF pair; stray \r is treated as \n.
                if chars.peek() == Some(&'\n') {
                    continue;
                }
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                line += 1;
            }
            '\n' => {
                record.push(std::mem::take(&mut field));
                records.push(std::mem::take(&mut record));
                line += 1;
            }
            _ => field.push(c),
        }
    }
    if in_quotes {
        return Err(DatasetError::UnterminatedQuote {
            line: quote_start_line,
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !saw_any || records.is_empty() {
        return Err(DatasetError::EmptyInput);
    }
    Ok(records)
}

/// Parses CSV text (header + data rows) into a [`Dataset`].
///
/// One pass over the bytes, no intermediate records: an unquoted field is
/// interned straight from the input slice, a field with a quoted part is
/// spliced in one reused buffer, and each row's symbols go onto the
/// columns as its record ends. The records are exactly those of
/// [`parse_records`] (the reference the tests compare against), values are
/// interned in row-major order, and errors keep its precedence: an
/// unterminated quote anywhere wins over a malformed header or record
/// before it. `ArityMismatch::line` is the physical line the record
/// starts on.
pub fn parse_dataset(input: &str) -> Result<Dataset, DatasetError> {
    let bytes = input.as_bytes();
    // Every delimiter is ASCII, so slicing `input` at one is always on a
    // character boundary.
    let is_plain = |b: u8| !matches!(b, b'"' | b',' | b'\r' | b'\n');
    let mut header: Vec<String> = Vec::new();
    let mut arity = 0usize;
    let mut ds: Option<Dataset> = None;
    // The first malformed header or record; reported only once the rest of
    // the input is known to close its quotes.
    let mut failure: Option<DatasetError> = None;
    let mut row: Vec<Sym> = Vec::new();
    // Per column, the previous record's field as a range of `input` and
    // its symbol; `(0, 0, NULL)` (the empty field) until there is one, and
    // for a spliced field.
    let mut above: Vec<(usize, usize, Sym)> = Vec::new();
    let mut scratch = String::new();
    let (mut line, mut record_line) = (1usize, 1usize);
    // Fields completed in the current record.
    let mut fields = 0usize;
    let mut pos = 0usize;
    while pos < bytes.len() || fields > 0 {
        // One field: plain runs read in place; the first quote moves the
        // field into `scratch`.
        let mut run = pos;
        let mut spliced = false;
        loop {
            while pos < bytes.len() && is_plain(bytes[pos]) {
                pos += 1;
            }
            if bytes.get(pos) != Some(&b'"') {
                break;
            }
            if !spliced {
                scratch.clear();
                spliced = true;
            }
            scratch.push_str(&input[run..pos]);
            let quote_line = line;
            pos += 1;
            run = pos;
            loop {
                match bytes.get(pos) {
                    None => return Err(DatasetError::UnterminatedQuote { line: quote_line }),
                    Some(b'"') if bytes.get(pos + 1) == Some(&b'"') => {
                        // `""`: keep one of the two.
                        scratch.push_str(&input[run..=pos]);
                        pos += 2;
                        run = pos;
                    }
                    Some(b'"') => break,
                    Some(&b) => {
                        line += usize::from(b == b'\n');
                        pos += 1;
                    }
                }
            }
            scratch.push_str(&input[run..pos]);
            pos += 1;
            run = pos;
        }
        let field = if spliced {
            scratch.push_str(&input[run..pos]);
            scratch.as_str()
        } else {
            &input[run..pos]
        };
        let terminator = bytes.get(pos).copied();
        if terminator.is_none() && fields == 0 && field.is_empty() {
            // Nothing after the last record terminator (or only `""`).
            break;
        }
        if failure.is_none() {
            match &mut ds {
                None => header.push(field.to_string()),
                Some(ds) if fields < arity => {
                    // The same text as the field above it needs no lookup.
                    let (start, end, sym) = above[fields];
                    let sym = if !spliced && bytes[start..end] == *field.as_bytes() {
                        sym
                    } else {
                        ds.intern(field)
                    };
                    above[fields] = if spliced {
                        (0, 0, Sym::NULL)
                    } else {
                        (run, pos, sym)
                    };
                    row.push(sym);
                }
                Some(_) => {}
            }
        }
        fields += 1;
        pos += 1;
        if terminator == Some(b',') {
            continue;
        }
        // End of record: `\n`, `\r\n`, a stray `\r`, or the end of input.
        if terminator == Some(b'\r') && bytes.get(pos) == Some(&b'\n') {
            pos += 1;
        }
        line += 1;
        if failure.is_none() {
            match &mut ds {
                None => {
                    let repeated = (1..header.len()).find(|&i| header[..i].contains(&header[i]));
                    match repeated {
                        Some(i) => {
                            failure = Some(DatasetError::DuplicateAttribute(header.swap_remove(i)));
                        }
                        None => {
                            arity = header.len();
                            above = vec![(0, 0, Sym::NULL); arity];
                            ds = Some(Dataset::new(Schema::new(std::mem::take(&mut header))));
                        }
                    }
                }
                Some(ds) if fields == arity => {
                    ds.push_row_syms(&row);
                }
                Some(_) => {
                    failure = Some(DatasetError::ArityMismatch {
                        line: record_line,
                        expected: arity,
                        found: fields,
                    });
                }
            }
        }
        row.clear();
        fields = 0;
        record_line = line;
    }
    match failure {
        Some(e) => Err(e),
        None => ds.ok_or(DatasetError::EmptyInput),
    }
}

/// Loads a dataset from a CSV file.
pub fn read_file(path: impl AsRef<Path>) -> Result<Dataset, DatasetError> {
    let text = std::fs::read_to_string(path)?;
    parse_dataset(&text)
}

/// Appends one record: the fields escaped per RFC 4180 (quoted iff one
/// contains `,`, `"` or a line break), comma-separated, then `\n`.
fn write_record<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    for (i, field) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            for c in field.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
}

/// Serialises a dataset to CSV text (header + rows).
pub fn to_csv_string(ds: &Dataset) -> String {
    let mut out = String::new();
    write_record(&mut out, ds.schema().names().iter().map(String::as_str));
    for t in ds.tuples() {
        write_record(&mut out, ds.schema().attrs().map(|a| ds.cell_str(t, a)));
    }
    out
}

/// Writes a dataset to a CSV file (buffered).
pub fn write_file(ds: &Dataset, path: impl AsRef<Path>) -> Result<(), DatasetError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(to_csv_string(ds).as_bytes())?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_parse() {
        let ds = parse_dataset("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(ds.tuple_count(), 2);
        assert_eq!(ds.schema().names(), &["a", "b"]);
        assert_eq!(ds.cell_str(0.into(), 1.into()), "2");
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let ds = parse_dataset("name,addr\n\"Doe, John\",\"12 Main St\nApt 4\"\n").unwrap();
        assert_eq!(ds.cell_str(0.into(), 0.into()), "Doe, John");
        assert_eq!(ds.cell_str(0.into(), 1.into()), "12 Main St\nApt 4");
    }

    #[test]
    fn escaped_quotes() {
        let ds = parse_dataset("a\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(ds.cell_str(0.into(), 0.into()), "say \"hi\"");
    }

    #[test]
    fn crlf_line_endings() {
        let ds = parse_dataset("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(ds.tuple_count(), 1);
        assert_eq!(ds.cell_str(0.into(), 1.into()), "2");
    }

    #[test]
    fn missing_trailing_newline() {
        let ds = parse_dataset("a,b\n1,2").unwrap();
        assert_eq!(ds.tuple_count(), 1);
    }

    #[test]
    fn empty_fields_become_null() {
        let ds = parse_dataset("a,b\n,x\n").unwrap();
        assert!(ds.cell(0.into(), 0.into()).is_null());
        assert_eq!(ds.cell_str(0.into(), 1.into()), "x");
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let err = parse_dataset("a,b\n1,2\n1,2,3\n").unwrap_err();
        assert_eq!(
            err,
            DatasetError::ArityMismatch {
                line: 3,
                expected: 2,
                found: 3
            }
        );
    }

    /// A quoted field spanning lines moves the physical line away from the
    /// record ordinal: the three-field record is the third record but
    /// starts on line 4.
    #[test]
    fn arity_mismatch_line_counts_lines_inside_quotes() {
        let err = parse_dataset("a,b\n\"x\ny\",1\n1,2,3\n").unwrap_err();
        assert_eq!(
            err,
            DatasetError::ArityMismatch {
                line: 4,
                expected: 2,
                found: 3
            }
        );
    }

    #[test]
    fn duplicate_header_is_a_typed_error() {
        assert_eq!(
            parse_dataset("a,b,a\n1,2,3\n").unwrap_err(),
            DatasetError::DuplicateAttribute("a".into())
        );
        // An unterminated quote further down still wins.
        assert_eq!(
            parse_dataset("a,a\n\"x").unwrap_err(),
            DatasetError::UnterminatedQuote { line: 2 }
        );
    }

    /// What `parse_dataset` was before it streamed: all records first
    /// ([`parse_records`]), then the header, then row by row. The streaming
    /// parser must agree with it on everything but `ArityMismatch::line`,
    /// which this reports as the record ordinal.
    fn reference_dataset(input: &str) -> Result<Dataset, DatasetError> {
        let mut records = parse_records(input)?.into_iter();
        let header = records.next().ok_or(DatasetError::EmptyInput)?;
        if let Some((_, name)) = header
            .iter()
            .enumerate()
            .find(|(i, name)| header[..*i].contains(name))
        {
            return Err(DatasetError::DuplicateAttribute(name.clone()));
        }
        let arity = header.len();
        let mut ds = Dataset::new(Schema::new(header));
        for (i, rec) in records.enumerate() {
            if rec.len() != arity {
                return Err(DatasetError::ArityMismatch {
                    line: i + 2,
                    expected: arity,
                    found: rec.len(),
                });
            }
            ds.push_row(&rec);
        }
        Ok(ds)
    }

    /// Streaming ≡ reference: same schema, cells and symbol order, or the
    /// same error (up to `ArityMismatch::line`).
    fn assert_matches_reference(input: &str) {
        match (parse_dataset(input), reference_dataset(input)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.schema(), want.schema(), "{input:?}");
                assert_eq!(got.tuple_count(), want.tuple_count(), "{input:?}");
                for a in want.schema().attrs() {
                    assert_eq!(got.codes(a), want.codes(a), "{input:?} column {a}");
                    assert_eq!(
                        got.dictionary(a),
                        want.dictionary(a),
                        "{input:?} column {a}"
                    );
                }
                let symbols = |ds: &Dataset| -> Vec<String> {
                    ds.pool().iter().map(|(_, s)| s.to_string()).collect()
                };
                assert_eq!(symbols(&got), symbols(&want), "{input:?}");
            }
            (
                Err(DatasetError::ArityMismatch {
                    expected, found, ..
                }),
                Err(DatasetError::ArityMismatch {
                    expected: want_expected,
                    found: want_found,
                    ..
                }),
            ) => assert_eq!((expected, found), (want_expected, want_found), "{input:?}"),
            (Err(got), Err(want)) => assert_eq!(got, want, "{input:?}"),
            (got, want) => panic!("{input:?}: streaming {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn streaming_matches_reference_on_the_awkward_inputs() {
        for input in [
            "",
            "\n",
            "\r",
            "\"\"",
            "a\n\"\"",
            "a\n\"\",",
            "a,b\n1,",
            "a,b\n1,2",
            "a,b\r\n1,2\r\n",
            "a,b\r1,2\r",
            "a\r\r\nb",
            "a,b\n\n1,2\n",
            "a\nx\"y,z\"w\n",
            "a\n\"p\"q\"r\"\n",
            "a\n\"say \"\"hi\"\"\"\n",
            "a\n\"\"\"",
            "a,b\n\"x\ny\",\"\r\"\n",
            "é,b\né\"é\",ü\n",
            "a,b\n1\n\"open",
            "a,a\n1,2\n",
            "a,b\n1,2,3\n4,5\n6\n",
        ] {
            assert_matches_reference(input);
        }
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = parse_dataset("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, DatasetError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(parse_dataset("").unwrap_err(), DatasetError::EmptyInput);
    }

    #[test]
    fn header_only_dataset() {
        let ds = parse_dataset("a,b\n").unwrap();
        assert_eq!(ds.tuple_count(), 0);
    }

    #[test]
    fn roundtrip_with_special_chars() {
        let mut ds = Dataset::new(Schema::new(vec!["x", "y"]));
        ds.push_row(&["plain", "has,comma"]);
        ds.push_row(&["has\"quote", "has\nnewline"]);
        let text = to_csv_string(&ds);
        let back = parse_dataset(&text).unwrap();
        assert_eq!(back.tuple_count(), 2);
        assert_eq!(back.cell_str(0.into(), 1.into()), "has,comma");
        assert_eq!(back.cell_str(1.into(), 0.into()), "has\"quote");
        assert_eq!(back.cell_str(1.into(), 1.into()), "has\nnewline");
    }

    #[test]
    fn file_roundtrip() {
        let mut ds = Dataset::new(Schema::new(vec!["a"]));
        ds.push_row(&["v1"]);
        let dir = std::env::temp_dir().join("holo_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        write_file(&ds, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.cell_str(0.into(), 0.into()), "v1");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The CSV half of the no-panic contract: any text over the
        /// delimiters, a few letters and multi-byte characters parses or
        /// fails exactly as the record-based reference does.
        #[test]
        fn prop_streaming_equals_reference(
            wide in "[a-z,\"\r\n é]{0,64}",
            // Delimiter-heavy, with few enough letters that headers repeat.
            dense in "[ab,,\"\"\r\n\n é]{0,48}",
            // Long fields of one- to four-byte characters (past 16 bytes,
            // the pool's arena and index see them whole), each ended by a
            // delimiter or a quote.
            long in proptest::collection::vec(("[abé日😀 ]{0,40}", 0u8..6), 0..12),
        ) {
            assert_matches_reference(&wide);
            assert_matches_reference(&dense);
            let mut text = String::new();
            for (field, end) in &long {
                text.push_str(field);
                text.push_str([",", "\n", "\"", "\r\n", ",", "\"\""][*end as usize]);
            }
            assert_matches_reference(&text);
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            rows in proptest::collection::vec(
                proptest::collection::vec("[ -~]{0,10}", 3..4usize), 1..20)
        ) {
            let mut ds = Dataset::new(Schema::new(vec!["c0", "c1", "c2"]));
            for r in &rows {
                ds.push_row(r);
            }
            let text = to_csv_string(&ds);
            let back = parse_dataset(&text).unwrap();
            prop_assert_eq!(back.tuple_count(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                for (j, v) in r.iter().enumerate() {
                    prop_assert_eq!(back.cell_str(i.into(), j.into()), v.as_str());
                }
            }
        }
    }
}
