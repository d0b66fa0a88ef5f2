//! Quick start: discover the transformations that make two differently
//! formatted columns joinable, then run the end-to-end join.
//!
//! This reproduces the motivating example of the paper (Figure 1): a staff
//! roster with names formatted "Last, First" joined against a phone listing
//! with names formatted "F Last".
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use tabjoin::prelude::*;

fn main() {
    // The two tables of the paper's Figure 1 (right-hand side).
    let staff = Table::new(
        "staff",
        vec!["Name".into(), "Department".into()],
    );
    let mut staff = staff;
    for (name, dept) in [
        ("Rafiei, Davood", "CS (2000)"),
        ("Nascimento, Mario A", "CS (1999)"),
        ("Gingrich, Douglas M", "Physics (1993)"),
        ("Prus-Czarnecki, Andrzej", "Physics (2000)"),
        ("Bowling, Michael", "CS (2003)"),
        ("Gosgnach, Simon", "Physiology (2006)"),
    ] {
        staff.push_row(vec![name.into(), dept.into()]);
    }

    let mut phones = Table::new("phones", vec!["Name".into(), "Phone".into()]);
    for (name, phone) in [
        ("D Rafiei", "(780) 433-6545"),
        ("M A Nascimento", "(780) 428-2108"),
        ("D Gingrich", "(780) 406-4565"),
        ("A Prus-czarnecki", "(780) 433-8303"),
        ("M Bowling", "(780) 471-0427"),
        ("S Gosgnach", "(780) 432-4814"),
    ] {
        phones.push_row(vec![name.into(), phone.into()]);
    }

    let pair = TablePair {
        name: "figure-1".into(),
        source: staff,
        target: phones,
        source_join_column: 0,
        target_join_column: 0,
        golden_pairs: (0..6).map(|i| (i, i)).collect(),
    };
    let columns = pair.column_pair();

    println!("== Step 1: candidate joinable row pairs (Algorithm 1) ==");
    let matcher = NGramMatcher::with_defaults();
    let rows = matcher
        .try_find_candidates(&columns, None, None)
        .expect("matching without a budget or corpus cannot abort");
    let candidates = columns.row_values(&rows);
    for (s, t) in &candidates {
        println!("  {s:<28} ~  {t}");
    }

    println!("\n== Step 2: transformation discovery ==");
    let engine = SynthesisEngine::new(SynthesisConfig::default());
    let result = engine.discover_from_strings(&candidates);
    println!("{}", result.cover);
    println!("stats:\n{}", result.stats);

    println!("\n== Step 3: end-to-end join ==");
    let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
    let outcome = pipeline.run(&columns);
    println!(
        "predicted {} pairs | precision {:.3} recall {:.3} f1 {:.3}",
        outcome.predicted_pairs.len(),
        outcome.metrics.precision,
        outcome.metrics.recall,
        outcome.metrics.f1
    );
    for &(s, t) in &outcome.predicted_pairs {
        println!(
            "  {:<28} = {}",
            columns.source[s as usize], columns.target[t as usize]
        );
    }
}
