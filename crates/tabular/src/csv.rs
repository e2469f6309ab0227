//! Minimal CSV serialisation for `DataFrame`.
//!
//! Format: a header row with feature names followed by a final label column
//! named `__label__` (class index for classification, real value for
//! regression). This is sufficient for persisting synthetic datasets and for
//! loading user-provided numeric tables; it is not a general CSV parser
//! (no quoting — feature names must not contain commas).

use crate::column::Column;
use crate::error::{Result, TabularError};
use crate::frame::{DataFrame, Label, Task};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Reserved header name for the label column.
pub(crate) const LABEL_COLUMN: &str = "__label__";

/// Write a frame as CSV to any writer. Every value is written in the
/// shortest digits that parse back to the same bits (`{:e}`), each row
/// through one reused buffer.
pub fn write_csv<W: Write>(frame: &DataFrame, w: &mut W) -> Result<()> {
    let mut line = String::new();
    for c in frame.columns() {
        line.push_str(&c.name);
        line.push(',');
    }
    line.push_str(LABEL_COLUMN);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    for i in 0..frame.n_rows() {
        line.clear();
        // Writing into a `String` cannot fail.
        for c in frame.columns() {
            let _ = write!(line, "{:e},", c.values[i]);
        }
        let _ = match frame.label() {
            Label::Class { y, .. } => writeln!(line, "{}", y[i]),
            Label::Reg(y) => writeln!(line, "{:e}", y[i]),
        };
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Read a frame from CSV produced by [`write_csv`] (or any comma-separated
/// numeric table whose last column is the label).
pub fn read_csv<R: Read>(name: &str, task: Task, r: R) -> Result<DataFrame> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| TabularError::Empty("csv has no header".into()))??;
    let header: Vec<String> = header_line
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    if header.len() < 2 {
        return Err(TabularError::Csv {
            line: 1,
            msg: "need at least one feature column and a label column".into(),
        });
    }
    let n_features = header.len() - 1;
    let mut feature_rows: Vec<Vec<f64>> = vec![Vec::new(); n_features];
    let mut class_labels: Vec<usize> = Vec::new();
    let mut reg_labels: Vec<f64> = Vec::new();
    // The largest class label so far and its line.
    let mut max_class: Option<(usize, usize)> = None;

    for (line_no, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != header.len() {
            return Err(TabularError::Csv {
                line: line_no + 2,
                msg: format!("expected {} fields, got {}", header.len(), fields.len()),
            });
        }
        for (j, row) in feature_rows.iter_mut().enumerate() {
            let v: f64 = fields[j].trim().parse().map_err(|_| TabularError::Csv {
                line: line_no + 2,
                msg: format!("bad float `{}` in column `{}`", fields[j], header[j]),
            })?;
            row.push(v);
        }
        let last = fields[n_features].trim();
        match task {
            Task::Classification => {
                let c: usize = last.parse().map_err(|_| TabularError::Csv {
                    line: line_no + 2,
                    msg: format!("bad class label `{last}`"),
                })?;
                if max_class.is_none_or(|(m, _)| c > m) {
                    max_class = Some((c, line_no + 2));
                }
                class_labels.push(c);
            }
            Task::Regression => {
                let v: f64 = last.parse().map_err(|_| TabularError::Csv {
                    line: line_no + 2,
                    msg: format!("bad regression target `{last}`"),
                })?;
                reg_labels.push(v);
            }
        }
    }

    let columns: Vec<Column> = header[..n_features]
        .iter()
        .zip(feature_rows)
        .map(|(name, values)| Column::new(name.clone(), values))
        .collect();

    let label = match task {
        Task::Classification => {
            // Class labels index per-class counts in every tree, so the
            // class count is bounded by what the input justifies: no more
            // classes than data rows.
            let n_classes = match max_class {
                None => 1,
                Some((max, line)) => max
                    .checked_add(1)
                    .filter(|&n| n <= class_labels.len())
                    .ok_or_else(|| TabularError::Csv {
                        line,
                        msg: format!(
                            "class label {max} implies more classes than the {} data rows",
                            class_labels.len()
                        ),
                    })?,
            };
            Label::Class {
                y: class_labels,
                n_classes,
            }
        }
        Task::Regression => Label::Reg(reg_labels),
    };
    DataFrame::new(name, columns, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> DataFrame {
        DataFrame::new(
            "t",
            vec![
                Column::new("a", vec![1.0, 2.5, -3.125]),
                Column::new("b", vec![0.1, 0.2, 0.3]),
            ],
            Label::Class {
                y: vec![0, 1, 1],
                n_classes: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn round_trip_classification() {
        let f = frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let g = read_csv("t", Task::Classification, &buf[..]).unwrap();
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.n_cols(), 2);
        assert_eq!(g.label().classes().unwrap(), f.label().classes().unwrap());
        for (ca, cb) in f.columns().iter().zip(g.columns()) {
            assert_eq!(ca.name, cb.name);
            for (x, y) in ca.values.iter().zip(&cb.values) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn round_trip_regression() {
        let f = DataFrame::new(
            "r",
            vec![Column::new("x", vec![1.0, 2.0])],
            Label::Reg(vec![0.123456789012345, -9.0]),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let g = read_csv("r", Task::Regression, &buf[..]).unwrap();
        let t = g.label().targets().unwrap();
        assert!((t[0] - 0.123456789012345).abs() < 1e-15);
        assert_eq!(t[1], -9.0);
    }

    #[test]
    fn rejects_ragged_rows() {
        let data = "a,b,__label__\n1,2,0\n1,0\n";
        let err = read_csv("x", Task::Classification, data.as_bytes()).unwrap_err();
        match err {
            TabularError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_bad_float() {
        let data = "a,__label__\nfoo,0\n";
        assert!(matches!(
            read_csv("x", Task::Classification, data.as_bytes()),
            Err(TabularError::Csv { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(read_csv("x", Task::Classification, &b""[..]).is_err());
    }

    #[test]
    fn rejects_class_labels_the_rows_do_not_justify() {
        for (data, line) in [
            ("a,__label__\n1,0\n2,18446744073709551615\n", 3),
            ("a,__label__\n1,4000000000\n2,0\n", 2),
            ("a,__label__\n1,0\n2,1\n3,3\n", 4),
        ] {
            match read_csv("x", Task::Classification, data.as_bytes()) {
                Err(TabularError::Csv { line: got, .. }) => assert_eq!(got, line, "{data:?}"),
                other => panic!("{data:?}: {other:?}"),
            }
        }
        let ok = read_csv(
            "x",
            Task::Classification,
            &b"a,__label__\n1,0\n2,2\n3,1\n"[..],
        )
        .unwrap();
        assert_eq!(ok.label().n_classes(), 3);
    }

    #[test]
    fn values_round_trip_to_the_bit_in_shortest_digits() {
        let values = vec![
            0.1,
            -0.0,
            1e15,
            123456789012345680.0,
            5e-324,
            f64::MAX,
            f64::NEG_INFINITY,
        ];
        let f = DataFrame::new(
            "t",
            vec![Column::new("a", values.clone())],
            Label::Reg(values.iter().rev().copied().collect()),
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("a,__label__\n1e-1,-inf\n-0e0,"), "{text}");
        let g = read_csv("t", Task::Regression, &buf[..]).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&g.columns()[0].values), bits(&values));
        assert_eq!(
            bits(g.label().targets().unwrap()),
            bits(f.label().targets().unwrap())
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Whatever becomes of a written CSV — cut at any byte, a bit
        /// flipped, a byte that is not UTF-8, a field dropped or added,
        /// only its header left — reading it returns a frame or a typed
        /// error, never a panic.
        #[test]
        fn mangled_csv_reads_to_a_frame_or_a_typed_error(
            rows in 0usize..6,
            at in 0usize..10_000,
            bit in 0u8..8,
            mangle in 0usize..6,
            regression in 0usize..2,
        ) {
            let n = rows.max(1);
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 1e3).collect();
            let label = if regression == 1 {
                Label::Reg(a.iter().map(|v| v * 0.5).collect())
            } else {
                Label::Class { y: (0..n).map(|i| i % 2).collect(), n_classes: 2 }
            };
            let f = DataFrame::new("m", vec![Column::new("a", a), Column::new("b", vec![2.5; n])], label).unwrap();
            let mut buf = Vec::new();
            write_csv(&f, &mut buf).unwrap();
            let at = at % buf.len();
            match mangle {
                0 => buf.truncate(at),
                1 => buf[at] ^= 1 << bit,
                2 => buf[at] = 0xFF,
                3 => buf.insert(at, b','),
                4 => {
                    if let Some(p) = buf[at..].iter().position(|&b| b == b',') {
                        buf.remove(at + p);
                    }
                }
                _ => {
                    let header_end = buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len());
                    buf.truncate(header_end + 1);
                }
            }
            let task = if regression == 1 { Task::Regression } else { Task::Classification };
            if let Ok(frame) = read_csv("m", task, &buf[..]) {
                proptest::prop_assert!(frame.n_rows() <= n);
                if let Label::Class { n_classes, .. } = frame.label() {
                    proptest::prop_assert!(*n_classes <= frame.n_rows().max(1));
                }
            }
        }
    }

    #[test]
    fn skips_blank_lines() {
        let data = "a,__label__\n1,0\n\n2,1\n";
        let f = read_csv("x", Task::Classification, data.as_bytes()).unwrap();
        assert_eq!(f.n_rows(), 2);
    }
}
