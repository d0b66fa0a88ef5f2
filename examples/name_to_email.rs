//! Mapping names to email addresses: a workload where no single rule covers
//! every row and a *set* of transformations is required (the paper's second
//! problem variant, Section 2).
//!
//! The course-contact table lists instructor emails generated under two
//! different conventions ("first.last@…" and "flast@…") plus two aliases
//! that no general rule explains. The engine covers every row: one rule per
//! convention, and for each alias a rule that copies part of the name and
//! spells the rest as a literal, which covers that row alone. The example
//! then lists the rows left uncovered (none on this input).
//!
//! Run with:
//! ```text
//! cargo run --release --example name_to_email
//! ```

use tabjoin::prelude::*;

fn main() {
    let rows: Vec<(&str, &str)> = vec![
        // Convention A: first.last@ualberta.ca
        ("Rafiei, Davood", "davood.rafiei@ualberta.ca"),
        ("Nascimento, Mario", "mario.nascimento@ualberta.ca"),
        ("Bowling, Michael", "michael.bowling@ualberta.ca"),
        ("Stewart, Emily", "emily.stewart@ualberta.ca"),
        ("Morales, Jordan", "jordan.morales@ualberta.ca"),
        // Convention B: first-initial + last name
        ("Gingrich, Douglas", "dgingrich@ualberta.ca"),
        ("Gosgnach, Simon", "sgosgnach@ualberta.ca"),
        ("Watson, Patricia", "pwatson@ualberta.ca"),
        ("Chavez, Walter", "wchavez@ualberta.ca"),
        // Aliases: no general rule produces them, so each is covered by a
        // single-row rule that spells its irregular part as a literal.
        ("Prus-Czarnecki, Andrzej", "andrzej.czarnecki@ualberta.ca"),
        ("Kim, Alexander", "alex.kim@ualberta.ca"),
    ];

    println!("discovering transformations over {} name/email pairs\n", rows.len());
    let engine = SynthesisEngine::new(SynthesisConfig::default());
    let result = engine.discover_from_strings(&rows);

    println!("covering set ({} transformations):", result.cover.len());
    for t in result.cover.iter() {
        println!(
            "  covers {:>2} rows  {}",
            t.coverage(),
            t.transformation
        );
    }
    println!(
        "\ntop transformation coverage: {:.2}",
        result.top_coverage()
    );
    println!("covering set coverage:       {:.2}", result.set_coverage());

    // Which rows stay uncovered? None here: the single-row literal rules
    // cover the aliases.
    let mut covered = vec![false; rows.len()];
    for t in result.cover.iter() {
        for &r in &t.covered_rows {
            covered[r as usize] = true;
        }
    }
    println!("\nrows not covered by any transformation:");
    for (i, (name, email)) in rows.iter().enumerate() {
        if !covered[i] {
            println!("  {name} -> {email}");
        }
    }

    // Compare against Auto-Join under the same budget.
    println!("\n== Auto-Join baseline on the same input ==");
    let autojoin = AutoJoin::new(AutoJoinConfig {
        time_budget: std::time::Duration::from_secs(20),
        ..AutoJoinConfig::default()
    });
    let aj = autojoin.discover(&rows);
    let aj_set = aj.evaluate(&rows, &tabjoin::text::NormalizeOptions::default());
    println!(
        "auto-join: {} transformations from {} subsets ({} succeeded), coverage {:.2}, {} unit evaluations, {:?} elapsed",
        aj_set.len(),
        aj.subsets_tried,
        aj.subsets_succeeded,
        aj_set.set_coverage(),
        aj.units_enumerated,
        aj.elapsed
    );
}
