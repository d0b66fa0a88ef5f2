//! Minimal CSV reading for [`Table`]s: the way to load one's own tables.
//!
//! The workspace keeps to the approved offline dependency set, so this is a
//! small RFC-4180-style reader (quoted fields, embedded quotes doubled,
//! embedded newlines inside quotes) rather than a `csv` crate dependency.
//! `examples/csv_join.rs` is the user path: it reads two CSV files with
//! [`read_csv_file`], picks the join columns by header name with
//! [`Table::column_index`] and joins them with the pipeline.
//!
//! All loaders are total over malformed input: truncated files, ragged
//! rows, unterminated quotes, and non-UTF-8 bytes surface as typed
//! [`DatasetError`] variants rather than panics, so a batch driver can
//! degrade the affected table instead of dying.

use crate::table::Table;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// A typed dataset loading failure: what was malformed, with enough
/// structure for callers to report (or skip) the offending input.
#[derive(Debug)]
pub enum DatasetError {
    /// The underlying file read failed.
    Io(io::Error),
    /// The file's bytes are not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the first invalid sequence.
        valid_up_to: usize,
    },
    /// The input contains no records at all (not even a header).
    Empty,
    /// A record's field count disagrees with the header's.
    RaggedRecord {
        /// 1-based record number (the header is record 1).
        record: usize,
        /// Fields found in the record.
        found: usize,
        /// Fields the header promised.
        expected: usize,
    },
    /// A quoted field was never closed before the input ended (the
    /// truncated-file shape).
    UnterminatedQuote,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset read failed: {e}"),
            DatasetError::InvalidUtf8 { valid_up_to } => {
                write!(f, "dataset is not valid UTF-8 (first invalid byte at offset {valid_up_to})")
            }
            DatasetError::Empty => write!(f, "empty input"),
            DatasetError::RaggedRecord { record, found, expected } => {
                write!(f, "record {record} has {found} fields, expected {expected}")
            }
            DatasetError::UnterminatedQuote => write!(f, "unterminated quoted field"),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// Parses CSV text into a [`Table`]. The first record is the header.
///
/// Returns an error when records have inconsistent arity or a quoted field is
/// left unterminated.
pub fn parse_csv(name: &str, text: &str) -> Result<Table, DatasetError> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(DatasetError::Empty)?;
    let mut table = Table::new(name, header);
    for (i, record) in iter.enumerate() {
        if record.len() != table.column_count() {
            return Err(DatasetError::RaggedRecord {
                record: i + 2,
                found: record.len(),
                expected: table.column_count(),
            });
        }
        table.push_row(record);
    }
    Ok(table)
}

fn parse_records(text: &str) -> Result<Vec<Vec<String>>, DatasetError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any_char = false;

    while let Some(c) = chars.next() {
        any_char = true;
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' && field.is_empty() {
            in_quotes = true;
        } else if c == ',' {
            record.push(std::mem::take(&mut field));
        } else if c == '\r' {
            // swallow; handled with the following \n (or ignored)
        } else if c == '\n' {
            record.push(std::mem::take(&mut field));
            records.push(std::mem::take(&mut record));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err(DatasetError::UnterminatedQuote);
    }
    if any_char && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Reads a CSV file from disk into a [`Table`] named after the file stem.
/// Non-UTF-8 bytes surface as [`DatasetError::InvalidUtf8`] (with the
/// offset of the first bad byte) instead of a generic read failure.
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Table, DatasetError> {
    let path = path.as_ref();
    let bytes = fs::read(path)?;
    let text = String::from_utf8(bytes).map_err(|e| DatasetError::InvalidUtf8 {
        valid_up_to: e.utf8_error().valid_up_to(),
    })?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_owned();
    parse_csv(&name, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_csv() {
        let t = parse_csv("x", "a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.columns, vec!["a", "b"]);
        assert_eq!(t.rows, vec![vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn parse_without_trailing_newline() {
        let t = parse_csv("x", "a,b\n1,2").unwrap();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn parse_quoted_fields() {
        let t = parse_csv("x", "name,addr\n\"Rafiei, Davood\",\"10230 \"\"A\"\" St\"\n").unwrap();
        assert_eq!(t.rows[0][0], "Rafiei, Davood");
        assert_eq!(t.rows[0][1], "10230 \"A\" St");
    }

    #[test]
    fn parse_embedded_newline_in_quotes() {
        let t = parse_csv("x", "a,b\n\"line1\nline2\",2\n").unwrap();
        assert_eq!(t.rows[0][0], "line1\nline2");
    }

    #[test]
    fn parse_crlf() {
        let t = parse_csv("x", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.rows, vec![vec!["1", "2"]]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_csv("x", "").is_err());
        assert!(parse_csv("x", "a,b\n1\n").is_err());
        assert!(parse_csv("x", "a,b\n\"unterminated,2\n").is_err());
    }

    #[test]
    fn empty_input_is_typed() {
        assert!(matches!(parse_csv("x", ""), Err(DatasetError::Empty)));
    }

    #[test]
    fn ragged_record_reports_position_and_arity() {
        match parse_csv("x", "a,b,c\n1,2,3\n4,5\n") {
            Err(DatasetError::RaggedRecord { record, found, expected }) => {
                assert_eq!(record, 3);
                assert_eq!(found, 2);
                assert_eq!(expected, 3);
            }
            other => panic!("expected RaggedRecord, got {other:?}"),
        }
    }

    #[test]
    fn truncated_quoted_file_is_typed() {
        // A file cut off mid-quoted-field (the classic truncation shape).
        let truncated = "a,b\n\"Rafiei, Dav";
        assert!(matches!(
            parse_csv("x", truncated),
            Err(DatasetError::UnterminatedQuote)
        ));
    }

    #[test]
    fn invalid_utf8_file_is_typed_with_offset() {
        let dir = std::env::temp_dir().join("tjoin-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid-utf8.csv");
        std::fs::write(&path, b"a,b\n1,\xff\xfe\n").unwrap();
        match read_csv_file(&path) {
            Err(DatasetError::InvalidUtf8 { valid_up_to }) => assert_eq!(valid_up_to, 6),
            other => panic!("expected InvalidUtf8, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_with_source() {
        let err = read_csv_file("/nonexistent/tjoin-io-test.csv").unwrap_err();
        assert!(matches!(err, DatasetError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("dataset read failed"));
    }

    #[test]
    fn file_read_names_table_after_stem() {
        let dir = std::env::temp_dir().join("tjoin-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.csv");
        std::fs::write(&path, "name,note\n\"Rafiei, Davood\",\"said \"\"hi\"\"\"\nplain,v1\n").unwrap();
        let back = read_csv_file(&path).unwrap();
        assert_eq!(back.name, "table");
        assert_eq!(back.columns, vec!["name", "note"]);
        assert_eq!(back.rows, vec![vec!["Rafiei, Davood", "said \"hi\""], vec!["plain", "v1"]]);
        std::fs::remove_file(&path).unwrap();
    }
}
