//! Joining phone-number columns formatted by different providers — the
//! paper's introductory example of a mapping a single transformation can
//! cover — including how the discovered rule generalizes to rows that were
//! never part of the discovery input.
//!
//! Run with:
//! ```text
//! cargo run --release --example phone_join
//! ```

use tabjoin::datasets::realistic::{format_phone, PhoneStyle};
use tabjoin::prelude::*;

fn main() {
    // A directory formatted "(780) 432-3636" joined against a CRM export
    // formatted "+1 780 432 3636".
    let digits = [
        "7804323636",
        "7804336545",
        "4034282108",
        "5874064565",
        "8254338303",
        "7804710427",
        "7804324814",
        "4039876543",
    ];
    let discovery_rows: Vec<(String, String)> = digits
        .iter()
        .take(5)
        .map(|d| {
            (
                format_phone(d, PhoneStyle::Parenthesized),
                format_phone(d, PhoneStyle::International),
            )
        })
        .collect();

    println!("discovery input ({} rows):", discovery_rows.len());
    for (s, t) in &discovery_rows {
        println!("  {s:<18} ->  {t}");
    }

    let engine = SynthesisEngine::new(SynthesisConfig::default());
    let result = engine.discover_from_strings(&discovery_rows);
    let best = result.cover.best().expect("a transformation was found");
    println!(
        "\nbest transformation (covers {}/{} rows):\n  {}",
        best.coverage(),
        discovery_rows.len(),
        best.transformation
    );

    // Generalization check: apply the rule to phone numbers the engine never saw.
    println!("\ngeneralization to unseen rows:");
    let mut correct = 0;
    for d in digits.iter().skip(5) {
        let source = format_phone(d, PhoneStyle::Parenthesized);
        let expected = format_phone(d, PhoneStyle::International);
        let produced = best
            .transformation
            .apply(&source.to_lowercase())
            .unwrap_or_else(|| "<no output>".into());
        let ok = produced == expected.to_lowercase();
        correct += ok as u32;
        println!("  {source:<18} ->  {produced:<18} ({})", if ok { "ok" } else { "MISS" });
    }
    println!("\n{correct}/3 unseen rows transformed correctly");

    // The same data joined with the similarity-based Auto-FuzzyJoin baseline:
    // reformatted digits share few n-grams, so similarity joining struggles.
    let pair = ColumnPair::aligned(
        "phones",
        digits.iter().map(|d| format_phone(d, PhoneStyle::Parenthesized)).collect(),
        digits.iter().map(|d| format_phone(d, PhoneStyle::International)).collect(),
    );
    let afj = AutoFuzzyJoin::new(AutoFuzzyJoinConfig::default());
    let afj_result = afj.join(&pair);
    let tp = afj_result.pairs.iter().filter(|(s, t)| s == t).count();
    println!(
        "\nAuto-FuzzyJoin (similarity only): {} predicted pairs, {} correct of {}",
        afj_result.pairs.len(),
        tp,
        digits.len()
    );

    // End-to-end transformed join on the full table pair.
    let pipeline = JoinPipeline::new(JoinPipelineConfig::paper_default());
    let outcome = pipeline.run(&pair);
    println!(
        "transformed equi-join:            precision {:.2} recall {:.2} f1 {:.2}",
        outcome.metrics.precision, outcome.metrics.recall, outcome.metrics.f1
    );
}
