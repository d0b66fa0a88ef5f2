//! Joining two CSV files of one's own: load both tables, pick the join
//! columns by header name, and run the end-to-end pipeline (row matching,
//! transformation discovery, transformed equi-join).
//!
//! Run with:
//! ```text
//! cargo run --release --example csv_join -- SOURCE.csv SOURCE_COLUMN TARGET.csv TARGET_COLUMN
//! ```
//! With no arguments it joins two small embedded sample tables.

use tabjoin::datasets::io::{parse_csv, read_csv_file};
use tabjoin::prelude::*;

const SAMPLE_STAFF: &str = "\
Name,Department
\"Rafiei, Davood\",CS
\"Nascimento, Mario\",CS
\"Gingrich, Douglas\",Physics
\"Bowling, Michael\",CS
\"Gosgnach, Simon\",Physiology
\"Prus-Czarnecki, Andrzej\",Physics
";

const SAMPLE_PHONES: &str = "\
Phone,Contact
(780) 433-6545,D Rafiei
(780) 428-2108,M Nascimento
(780) 406-4565,D Gingrich
(780) 471-0427,M Bowling
(780) 432-4814,S Gosgnach
(780) 433-8303,A Prus-Czarnecki
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (source, source_column, target, target_column) = match args.as_slice() {
        [] => (
            parse_csv("staff", SAMPLE_STAFF)?,
            "Name",
            parse_csv("phones", SAMPLE_PHONES)?,
            "Contact",
        ),
        [source, source_column, target, target_column] => (
            read_csv_file(source)?,
            source_column.as_str(),
            read_csv_file(target)?,
            target_column.as_str(),
        ),
        _ => return Err("usage: csv_join [SOURCE.csv SOURCE_COLUMN TARGET.csv TARGET_COLUMN]".into()),
    };
    let column = |table: &Table, name: &str| {
        table
            .column_index(name)
            .ok_or_else(|| format!("table {:?} has no column {name:?}", table.name))
    };
    let source_join_column = column(&source, source_column)?;
    let target_join_column = column(&target, target_column)?;
    println!(
        "joining {}.{source_column} ({} rows) with {}.{target_column} ({} rows)",
        source.name,
        source.row_count(),
        target.name,
        target.row_count()
    );

    // Own data has no golden mapping, so the join metrics stay empty and
    // the predicted pairs are the result.
    let pair = TablePair {
        name: format!("{}-{}", source.name, target.name),
        source,
        target,
        source_join_column,
        target_join_column,
        golden_pairs: Vec::new(),
    };
    let outcome = JoinPipeline::new(JoinPipelineConfig::paper_default()).run(&pair.column_pair());

    println!("\ntransformations applied:\n{}", outcome.transformations);
    println!("{} joined rows:", outcome.predicted_pairs.len());
    for &(s, t) in &outcome.predicted_pairs {
        println!(
            "  {}  =  {}",
            pair.source.rows[s as usize].join(" | "),
            pair.target.rows[t as usize].join(" | ")
        );
    }
    Ok(())
}
