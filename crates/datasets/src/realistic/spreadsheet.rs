//! Simulated spreadsheet benchmark (108 FlashFill/BlinkFill-style pairs).
//!
//! The original corpus (SyGuS-Comp 2016 PBE-Strings track) contains short
//! data-cleaning tasks collected from Excel help forums: extracting name
//! parts, reformatting phone numbers, splitting paths, and the like. Each
//! task here is a small table pair (~34 rows, short values) that is mostly
//! coverable by a single transformation — the property that drives the
//! paper's numbers on this dataset (higher top-coverage, smaller covering
//! sets than web tables).

use crate::corpus;
use crate::realistic::formats::*;
use crate::table::{row_id, Table, TablePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Average rows per task, matching the paper's 34.43.
const ROWS_PER_TASK: usize = 34;

/// The FlashFill-style task kinds; 12 kinds × 9 instances = 108 pairs.
const TASKS: [Task; 12] = [
    Task::ExtractFirstName,
    Task::ExtractLastName,
    Task::Initials,
    Task::EmailDomain,
    Task::EmailUser,
    Task::PhoneAreaCode,
    Task::PhoneNormalize,
    Task::FileBaseName,
    Task::FileExtension,
    Task::DateYear,
    Task::TitleFromCitation,
    Task::ZipFromAddress,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    ExtractFirstName,
    ExtractLastName,
    Initials,
    EmailDomain,
    EmailUser,
    PhoneAreaCode,
    PhoneNormalize,
    FileBaseName,
    FileExtension,
    DateYear,
    TitleFromCitation,
    ZipFromAddress,
}

impl Task {
    fn name(self) -> &'static str {
        match self {
            Task::ExtractFirstName => "first-name",
            Task::ExtractLastName => "last-name",
            Task::Initials => "initials",
            Task::EmailDomain => "email-domain",
            Task::EmailUser => "email-user",
            Task::PhoneAreaCode => "area-code",
            Task::PhoneNormalize => "phone-normalize",
            Task::FileBaseName => "file-basename",
            Task::FileExtension => "file-extension",
            Task::DateYear => "date-year",
            Task::TitleFromCitation => "citation-title",
            Task::ZipFromAddress => "address-zip",
        }
    }
}

/// Generates the 108 simulated spreadsheet task pairs.
pub fn spreadsheet(seed: u64) -> Vec<TablePair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(108);
    for i in 0..108 {
        let task = TASKS[i % TASKS.len()];
        pairs.push(generate_task(task, i, &mut rng));
    }
    pairs
}

fn random_person(rng: &mut StdRng) -> PersonName {
    let first = corpus::FIRST_NAMES[rng.gen_range(0..corpus::FIRST_NAMES.len())];
    let last = corpus::LAST_NAMES[rng.gen_range(0..corpus::LAST_NAMES.len())];
    PersonName::new(first, last)
}

fn generate_task(task: Task, index: usize, rng: &mut StdRng) -> TablePair {
    let rows = ROWS_PER_TASK + rng.gen_range(0..8) - 4;
    let mut source_values = Vec::with_capacity(rows);
    let mut target_values = Vec::with_capacity(rows);
    for _ in 0..rows {
        let (s, t) = generate_row(task, rng);
        source_values.push(s);
        target_values.push(t);
    }
    let source = Table::single_column(
        format!("sheet-{index:03}-{}-input", task.name()),
        "input",
        source_values,
    );
    let target = Table::single_column(
        format!("sheet-{index:03}-{}-output", task.name()),
        "output",
        target_values,
    );
    let golden = (0..rows).map(|i| (row_id(i), row_id(i))).collect();
    TablePair {
        name: format!("sheet-{index:03}-{}", task.name()),
        source,
        target,
        source_join_column: 0,
        target_join_column: 0,
        golden_pairs: golden,
    }
}

fn generate_row(task: Task, rng: &mut StdRng) -> (String, String) {
    match task {
        Task::ExtractFirstName => {
            let p = random_person(rng);
            (format_person(&p, PersonStyle::FirstLast), p.first.clone())
        }
        Task::ExtractLastName => {
            let p = random_person(rng);
            (format_person(&p, PersonStyle::LastCommaFirst), p.last.clone())
        }
        Task::Initials => {
            let p = random_person(rng);
            let initials = format!(
                "{}{}",
                p.first.chars().next().unwrap(),
                p.last.chars().next().unwrap()
            );
            (format_person(&p, PersonStyle::FirstLast), initials)
        }
        Task::EmailDomain => {
            let p = random_person(rng);
            let domain = ["ualberta.ca", "gmail.com", "outlook.com", "company.org"]
                [rng.gen_range(0..4)];
            (
                format_person(&p, PersonStyle::Email { domain }),
                domain.to_owned(),
            )
        }
        Task::EmailUser => {
            let p = random_person(rng);
            let email = format_person(&p, PersonStyle::Email { domain: "ualberta.ca" });
            let user = email.split('@').next().unwrap().to_owned();
            (email, user)
        }
        Task::PhoneAreaCode => {
            let digits = format!("{}{:07}", ["780", "403", "587"][rng.gen_range(0..3)], rng.gen_range(0..10_000_000u32));
            (
                format_phone(&digits, PhoneStyle::Parenthesized),
                digits[0..3].to_owned(),
            )
        }
        Task::PhoneNormalize => {
            let digits = format!("{}{:07}", ["780", "403", "587"][rng.gen_range(0..3)], rng.gen_range(0..10_000_000u32));
            (
                format_phone(&digits, PhoneStyle::Dotted),
                format_phone(&digits, PhoneStyle::Dashed),
            )
        }
        Task::FileBaseName => {
            let dir = ["reports", "data", "images", "docs"][rng.gen_range(0..4)];
            let base = format!("{}_{}", ["summary", "budget", "draft", "final"][rng.gen_range(0..4)], rng.gen_range(1..99));
            let ext = ["pdf", "xlsx", "txt", "png"][rng.gen_range(0..4)];
            (format!("C:/{dir}/{base}.{ext}"), base)
        }
        Task::FileExtension => {
            let base = format!("{}{}", ["report", "photo", "notes", "sheet"][rng.gen_range(0..4)], rng.gen_range(1..999));
            let ext = ["pdf", "xlsx", "txt", "png", "csv"][rng.gen_range(0..5)];
            (format!("{base}.{ext}"), ext.to_owned())
        }
        Task::DateYear => {
            let (y, m, d) = (rng.gen_range(1980..2024), rng.gen_range(1..=12), rng.gen_range(1..=28));
            (
                format_date(y, m, d, DateStyle::MonthNameDayYear),
                y.to_string(),
            )
        }
        Task::TitleFromCitation => {
            let p = random_person(rng);
            let year = rng.gen_range(1990..2024);
            let title = format!(
                "{} {}",
                ["Efficient", "Scalable", "Robust", "Adaptive"][rng.gen_range(0..4)],
                ["Joins", "Indexing", "Matching", "Cleaning"][rng.gen_range(0..4)]
            );
            (
                format!("{} ({year}). {title}.", format_person(&p, PersonStyle::LastCommaFirst)),
                title,
            )
        }
        Task::ZipFromAddress => {
            let num = rng.gen_range(100..99999);
            let street = corpus::STREETS[rng.gen_range(0..corpus::STREETS.len())];
            let zip = format!("T{}{} {}{}{}", rng.gen_range(0..9), ['A', 'B', 'C', 'E'][rng.gen_range(0..4)], rng.gen_range(0..9), ['G', 'H', 'J', 'K'][rng.gen_range(0..4)], rng.gen_range(0..9));
            (format!("{num} {street}, Edmonton, AB {zip}"), zip)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_mapping_is_the_checked_identity() {
        // Pins the `row_id`-checked golden construction: the mapping is the
        // identity over exactly the generated row range.
        for pair in spreadsheet(0) {
            let rows = pair.source.row_count();
            assert_eq!(pair.golden_pairs.len(), rows, "{}", pair.name);
            for (i, &(s, t)) in pair.golden_pairs.iter().enumerate() {
                assert_eq!((s as usize, t as usize), (i, i), "{}", pair.name);
            }
        }
    }

    #[test]
    fn one_hundred_eight_pairs() {
        let pairs = spreadsheet(0);
        assert_eq!(pairs.len(), 108);
        for p in &pairs {
            assert!(p.source.row_count() >= ROWS_PER_TASK - 4);
            assert_eq!(p.source.row_count(), p.target.row_count());
            assert_eq!(p.source.column_count(), 1);
        }
    }

    #[test]
    fn average_row_count_near_paper() {
        let pairs = spreadsheet(1);
        let avg: f64 =
            pairs.iter().map(|p| p.source.row_count() as f64).sum::<f64>() / pairs.len() as f64;
        assert!((30.0..=40.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn values_are_short() {
        let pairs = spreadsheet(2);
        let avg: f64 = pairs
            .iter()
            .map(|p| p.column_pair().average_value_length())
            .sum::<f64>()
            / pairs.len() as f64;
        assert!(avg < 30.0, "avg join value length {avg}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(spreadsheet(7)[10], spreadsheet(7)[10]);
    }

    #[test]
    fn email_user_task_is_prefix() {
        let pairs = spreadsheet(3);
        let email_user = pairs.iter().find(|p| p.name.contains("email-user")).unwrap();
        for (s, t) in email_user
            .source
            .column(0)
            .iter()
            .zip(email_user.target.column(0))
        {
            assert!(s.starts_with(t), "{t} not a prefix of {s}");
        }
    }

    #[test]
    fn extension_task_is_suffix_piece() {
        let pairs = spreadsheet(3);
        let ext = pairs.iter().find(|p| p.name.contains("file-extension")).unwrap();
        for (s, t) in ext.source.column(0).iter().zip(ext.target.column(0)) {
            assert!(s.ends_with(&format!(".{t}")), "{s} does not end with .{t}");
        }
    }
}
