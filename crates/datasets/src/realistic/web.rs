//! Simulated web-tables benchmark (31 pairs over 17 topics).
//!
//! The original benchmark (Zhu et al. [33]) pairs Google Fusion tables that
//! describe the same entities with different formatting. This generator
//! reproduces its structural properties: ~92 rows per table, join values
//! around 30 characters, *several* formatting rules active within a single
//! pair (so no single transformation covers everything), and a slice of noise
//! rows whose target values were entered inconsistently and cannot be covered
//! by any string transformation.

use crate::corpus;
use crate::realistic::formats::*;
use crate::table::{row_id, Table, TablePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Approximate rows per table, matching the paper's reported mean of 92.13.
const ROWS_PER_TABLE: usize = 92;
/// Fraction of rows rendered inconsistently (noise).
const NOISE_FRACTION: f64 = 0.08;

/// The topics the generator cycles through; 17 distinct topics as in the
/// paper, instantiated 31 times with different seeds and rule mixes.
const TOPICS: [Topic; 17] = [
    Topic::StaffNameToAbbrev,
    Topic::NameToEmail,
    Topic::GovernorsStateParty,
    Topic::PhoneFormats,
    Topic::DatesOfBirth,
    Topic::CityCountry,
    Topic::CourseInstructor,
    Topic::CompanyTicker,
    Topic::AlbumArtist,
    Topic::AirportCodes,
    Topic::BookAuthorYear,
    Topic::MovieDirector,
    Topic::UniversityAbbrev,
    Topic::AthleteTeam,
    Topic::SenatorsTerm,
    Topic::ProductModel,
    Topic::ConferenceLocation,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topic {
    StaffNameToAbbrev,
    NameToEmail,
    GovernorsStateParty,
    PhoneFormats,
    DatesOfBirth,
    CityCountry,
    CourseInstructor,
    CompanyTicker,
    AlbumArtist,
    AirportCodes,
    BookAuthorYear,
    MovieDirector,
    UniversityAbbrev,
    AthleteTeam,
    SenatorsTerm,
    ProductModel,
    ConferenceLocation,
}

impl Topic {
    fn name(self) -> &'static str {
        match self {
            Topic::StaffNameToAbbrev => "staff-names",
            Topic::NameToEmail => "name-email",
            Topic::GovernorsStateParty => "governors",
            Topic::PhoneFormats => "phones",
            Topic::DatesOfBirth => "birthdays",
            Topic::CityCountry => "cities",
            Topic::CourseInstructor => "courses",
            Topic::CompanyTicker => "tickers",
            Topic::AlbumArtist => "albums",
            Topic::AirportCodes => "airports",
            Topic::BookAuthorYear => "books",
            Topic::MovieDirector => "movies",
            Topic::UniversityAbbrev => "universities",
            Topic::AthleteTeam => "athletes",
            Topic::SenatorsTerm => "senators",
            Topic::ProductModel => "products",
            Topic::ConferenceLocation => "conferences",
        }
    }
}

/// Generates the 31 simulated web table pairs.
pub fn web_tables(seed: u64) -> Vec<TablePair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(31);
    for i in 0..31 {
        let topic = TOPICS[i % TOPICS.len()];
        pairs.push(generate_pair(topic, i, &mut rng));
    }
    pairs
}

fn random_person(rng: &mut StdRng) -> PersonName {
    let first = corpus::FIRST_NAMES[rng.gen_range(0..corpus::FIRST_NAMES.len())];
    let last = corpus::LAST_NAMES[rng.gen_range(0..corpus::LAST_NAMES.len())];
    if rng.gen_bool(0.3) {
        let middle = corpus::FIRST_NAMES[rng.gen_range(0..corpus::FIRST_NAMES.len())];
        PersonName::with_middle(first, middle, last)
    } else {
        PersonName::new(first, last)
    }
}

fn random_phone_digits(rng: &mut StdRng) -> String {
    let area = ["780", "403", "587", "825"][rng.gen_range(0..4)];
    format!("{}{:07}", area, rng.gen_range(0..10_000_000u32))
}

/// Scrambles a value so that no string transformation of the source can
/// produce it (noise rows: typos, nicknames, reordered words).
fn noisify(value: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = value.chars().collect();
    match rng.gen_range(0..3) {
        0 => {
            // Swap two interior characters.
            if chars.len() >= 4 {
                let i = rng.gen_range(1..chars.len() - 2);
                chars.swap(i, i + 1);
            }
            chars.into_iter().collect()
        }
        1 => {
            // Drop a character.
            if chars.len() >= 3 {
                let i = rng.gen_range(1..chars.len() - 1);
                chars.remove(i);
            }
            chars.into_iter().collect()
        }
        _ => format!("{value} (ret.)"),
    }
}

fn generate_pair(topic: Topic, index: usize, rng: &mut StdRng) -> TablePair {
    let rows = ROWS_PER_TABLE + rng.gen_range(0..16);
    let mut source = Table::new(
        format!("web-{index:02}-{}-source", topic.name()),
        vec!["key".into(), "attribute".into()],
    );
    let mut target = Table::new(
        format!("web-{index:02}-{}-target", topic.name()),
        vec!["key".into(), "attribute".into()],
    );
    let mut golden = Vec::with_capacity(rows);

    for row in 0..rows {
        let (src_key, tgt_key, src_attr, tgt_attr) = generate_row(topic, rng);
        let noisy = rng.gen_bool(NOISE_FRACTION);
        let tgt_key = if noisy { noisify(&tgt_key, rng) } else { tgt_key };
        source.push_row(vec![src_key, src_attr]);
        target.push_row(vec![tgt_key, tgt_attr]);
        golden.push((row_id(row), row_id(row)));
    }

    TablePair {
        name: format!("web-{index:02}-{}", topic.name()),
        source,
        target,
        source_join_column: 0,
        target_join_column: 0,
        golden_pairs: golden,
    }
}

/// Produces one row for a topic: `(source_key, target_key, source_attr,
/// target_attr)`. Each topic uses 2–3 distinct target formats chosen per row
/// so that a covering set needs several transformations.
fn generate_row(topic: Topic, rng: &mut StdRng) -> (String, String, String, String) {
    match topic {
        Topic::StaffNameToAbbrev => {
            let p = random_person(rng);
            let dept = corpus::DEPARTMENTS[rng.gen_range(0..corpus::DEPARTMENTS.len())];
            let year = rng.gen_range(1985..2022);
            let src = format_person(&p, PersonStyle::LastCommaFirst);
            let tgt = if rng.gen_bool(0.6) {
                format_person(&p, PersonStyle::InitialLast)
            } else {
                format_person(&p, PersonStyle::InitialDotLast)
            };
            (src, tgt, format!("{dept} ({year})"), format!("({}) {}", 780, year))
        }
        Topic::NameToEmail => {
            let p = random_person(rng);
            let src = format_person(&p, PersonStyle::LastCommaFirst);
            let tgt = if rng.gen_bool(0.7) {
                format_person(&p, PersonStyle::Email { domain: "ualberta.ca" })
            } else {
                format!(
                    "{}@ualberta.ca",
                    format_person(&p, PersonStyle::UserId)
                )
            };
            let course = format!("CMPUT {}", rng.gen_range(100..700));
            (src, tgt, "Professor".into(), course)
        }
        Topic::GovernorsStateParty => {
            let p = random_person(rng);
            let (state, abbr) = corpus::STATES[rng.gen_range(0..corpus::STATES.len())];
            let src = format!("{} - Governor of {}", format_person(&p, PersonStyle::FirstLast), state);
            let tgt = if rng.gen_bool(0.5) {
                format!("{} ({})", format_person(&p, PersonStyle::LastCommaFirst), abbr)
            } else {
                format!("Gov. {} ({})", format_person(&p, PersonStyle::InitialLast), abbr)
            };
            let party = if rng.gen_bool(0.5) { "Democratic" } else { "Republican" };
            (src, tgt, party.into(), state.into())
        }
        Topic::PhoneFormats => {
            let digits = random_phone_digits(rng);
            let p = random_person(rng);
            let src = format_phone(&digits, PhoneStyle::Parenthesized);
            let tgt = match rng.gen_range(0..3) {
                0 => format_phone(&digits, PhoneStyle::International),
                1 => format_phone(&digits, PhoneStyle::Dashed),
                _ => format_phone(&digits, PhoneStyle::Dotted),
            };
            (
                src,
                tgt,
                format_person(&p, PersonStyle::FirstLast),
                format_person(&p, PersonStyle::InitialLast),
            )
        }
        Topic::DatesOfBirth => {
            let p = random_person(rng);
            let (y, m, d) = (rng.gen_range(1940..2005), rng.gen_range(1..=12), rng.gen_range(1..=28));
            let src = format!(
                "{} (b. {})",
                format_person(&p, PersonStyle::FirstLast),
                format_date(y, m, d, DateStyle::MonthNameDayYear)
            );
            let tgt = if rng.gen_bool(0.5) {
                format!("{}: {}", format_person(&p, PersonStyle::LastCommaFirst), format_date(y, m, d, DateStyle::Iso))
            } else {
                format!("{} {}", format_person(&p, PersonStyle::InitialLast), format_date(y, m, d, DateStyle::ShortMonth))
            };
            (src, tgt, y.to_string(), format!("{m:02}"))
        }
        Topic::CityCountry => {
            let city = corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())];
            let pop = rng.gen_range(50_000..3_000_000);
            let src = format!("{city}, Alberta, Canada");
            let tgt = if rng.gen_bool(0.5) {
                format!("{city} (Canada)")
            } else {
                format!("City of {city}")
            };
            (src, tgt, pop.to_string(), "Canada".into())
        }
        Topic::CourseInstructor => {
            let p = random_person(rng);
            let dept = ["CMPUT", "PHYS", "MATH", "STAT", "BIOL"][rng.gen_range(0..5)];
            let num = rng.gen_range(100..700);
            let src = format!("{dept} {num}: {}", format_person(&p, PersonStyle::FirstLast));
            let tgt = if rng.gen_bool(0.6) {
                format!("{dept}{num}")
            } else {
                format!("{dept} {num} ({})", format_person(&p, PersonStyle::InitialLast))
            };
            (src, tgt, format_person(&p, PersonStyle::Email { domain: "ualberta.ca" }), "3 credits".into())
        }
        Topic::CompanyTicker => {
            let base = corpus::BUSINESS_NAMES[rng.gen_range(0..corpus::BUSINESS_NAMES.len())];
            let suffix = corpus::COMPANY_SUFFIXES[rng.gen_range(0..corpus::COMPANY_SUFFIXES.len())];
            let ticker: String = base
                .split_whitespace()
                .filter_map(|w| w.chars().next())
                .collect::<String>()
                .to_uppercase();
            let src = format!("{base} {suffix}.");
            let tgt = if rng.gen_bool(0.5) {
                format!("{base} ({ticker})")
            } else {
                format!("{ticker}: {base}")
            };
            (src, tgt, ticker, suffix.to_string())
        }
        Topic::AlbumArtist => {
            let p = random_person(rng);
            let year = rng.gen_range(1965..2023);
            let album = format!("{} {}", corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())], ["Nights", "Dreams", "Sessions", "Live"][rng.gen_range(0..4)]);
            let src = format!("{album} - {}", format_person(&p, PersonStyle::FirstLast));
            let tgt = if rng.gen_bool(0.5) {
                format!("{} — \"{album}\" ({year})", format_person(&p, PersonStyle::LastCommaFirst))
            } else {
                format!("\"{album}\" by {}", format_person(&p, PersonStyle::InitialLast))
            };
            (src, tgt, year.to_string(), "Studio".into())
        }
        Topic::AirportCodes => {
            let city = corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())];
            let code: String = city.chars().filter(|c| c.is_alphabetic()).take(3).collect::<String>().to_uppercase();
            let src = format!("{city} International Airport");
            let tgt = if rng.gen_bool(0.5) {
                format!("{code} - {city}")
            } else {
                format!("{city} ({code})")
            };
            (src, tgt, code, "International".into())
        }
        Topic::BookAuthorYear => {
            let p = random_person(rng);
            let year = rng.gen_range(1900..2023);
            let title = format!("The {} of {}", ["History", "Art", "Science", "Theory"][rng.gen_range(0..4)], corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())]);
            let src = format!("{title}, by {}", format_person(&p, PersonStyle::FirstLast));
            let tgt = if rng.gen_bool(0.5) {
                format!("{} ({year}). {title}", format_person(&p, PersonStyle::LastCommaFirst))
            } else {
                format!("{title} [{year}]")
            };
            (src, tgt, year.to_string(), "Hardcover".into())
        }
        Topic::MovieDirector => {
            let p = random_person(rng);
            let year = rng.gen_range(1950..2023);
            let film = format!("{} {}", ["Midnight in", "Return to", "Escape from", "Letters from"][rng.gen_range(0..4)], corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())]);
            let src = format!("{film} ({year})");
            let tgt = if rng.gen_bool(0.6) {
                format!("{film} - dir. {}", format_person(&p, PersonStyle::InitialLast))
            } else {
                format!("{year}: {film}")
            };
            (src, tgt, format_person(&p, PersonStyle::FirstLast), year.to_string())
        }
        Topic::UniversityAbbrev => {
            let city = corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())];
            let abbr: String = format!("U{}", city.chars().next().unwrap_or('X'));
            let src = format!("University of {city}");
            let tgt = if rng.gen_bool(0.5) {
                format!("{abbr} ({city})")
            } else {
                format!("Univ. of {city}")
            };
            (src, tgt, abbr, "Public".into())
        }
        Topic::AthleteTeam => {
            let p = random_person(rng);
            let city = corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())];
            let team = format!("{city} {}", ["Oilers", "Flames", "Jets", "Canucks"][rng.gen_range(0..4)]);
            let num = rng.gen_range(1..99);
            let src = format!("{} #{num} ({team})", format_person(&p, PersonStyle::FirstLast));
            let tgt = if rng.gen_bool(0.5) {
                format!("{}, {team}", format_person(&p, PersonStyle::LastCommaFirst))
            } else {
                format!("#{num} {}", format_person(&p, PersonStyle::InitialLast))
            };
            (src, tgt, team, num.to_string())
        }
        Topic::SenatorsTerm => {
            let p = random_person(rng);
            let (state, abbr) = corpus::STATES[rng.gen_range(0..corpus::STATES.len())];
            let start = rng.gen_range(1990..2020);
            let src = format!("Sen. {} ({state}, since {start})", format_person(&p, PersonStyle::FirstLast));
            let tgt = if rng.gen_bool(0.5) {
                format!("{} [{abbr}]", format_person(&p, PersonStyle::LastCommaFirst))
            } else {
                format!("{} - {abbr} - {start}", format_person(&p, PersonStyle::InitialLast))
            };
            (src, tgt, state.into(), start.to_string())
        }
        Topic::ProductModel => {
            let brand = ["Nova", "Apex", "Zenith", "Orion", "Vertex"][rng.gen_range(0..5)];
            let series = ["X", "Pro", "Air", "Max"][rng.gen_range(0..4)];
            let num = rng.gen_range(100..999);
            let src = format!("{brand} {series}-{num}");
            let tgt = if rng.gen_bool(0.5) {
                format!("{brand}{series}{num}")
            } else {
                format!("{brand} {series} {num} (2023)")
            };
            (src, tgt, num.to_string(), series.to_string())
        }
        Topic::ConferenceLocation => {
            let city = corpus::CITIES[rng.gen_range(0..corpus::CITIES.len())];
            let year = rng.gen_range(2000..2024);
            let conf = ["ICDE", "SIGMOD", "VLDB", "KDD", "WWW"][rng.gen_range(0..5)];
            let src = format!("{conf} {year}, {city}, Canada");
            let tgt = if rng.gen_bool(0.5) {
                format!("{conf}'{}", year % 100)
            } else {
                format!("{conf} {year} ({city})")
            };
            (src, tgt, city.into(), year.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_row_ids_index_real_rows() {
        // Pins the `row_id`-checked golden construction: every golden id
        // addresses a row that exists in its table.
        for pair in web_tables(0) {
            let (s_rows, t_rows) = (pair.source.row_count(), pair.target.row_count());
            for &(s, t) in &pair.golden_pairs {
                assert!((s as usize) < s_rows && (t as usize) < t_rows, "{}", pair.name);
            }
        }
    }

    #[test]
    fn thirty_one_pairs_with_expected_shape() {
        let pairs = web_tables(0);
        assert_eq!(pairs.len(), 31);
        for p in &pairs {
            assert!(p.source.row_count() >= ROWS_PER_TABLE);
            assert_eq!(p.source.row_count(), p.target.row_count());
            assert_eq!(p.golden_pairs.len(), p.source.row_count());
            assert_eq!(p.source.column_count(), 2);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(web_tables(3)[0], web_tables(3)[0]);
        assert_ne!(web_tables(3)[0].source.rows, web_tables(4)[0].source.rows);
    }

    #[test]
    fn average_row_count_near_paper() {
        let pairs = web_tables(1);
        let avg: f64 = pairs.iter().map(|p| p.source.row_count() as f64).sum::<f64>() / 31.0;
        assert!((85.0..=110.0).contains(&avg), "avg rows {avg}");
    }

    #[test]
    fn topics_cycle_and_names_unique() {
        let pairs = web_tables(1);
        let names: std::collections::HashSet<&str> =
            pairs.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), 31);
    }

    #[test]
    fn noise_rows_present_but_minority() {
        // Count target keys that are not derivable even by direct equality or
        // obvious containment: approximate by counting "(ret.)" markers plus
        // assuming swaps/drops exist; just check the generator produces both
        // clean and noisy rows by regenerating many rows.
        let pairs = web_tables(9);
        let total: usize = pairs.iter().map(|p| p.target.row_count()).sum();
        let marked: usize = pairs
            .iter()
            .flat_map(|p| p.target.rows.iter())
            .filter(|r| r[0].contains("(ret.)"))
            .count();
        assert!(marked > 0, "expected some noise rows");
        assert!((marked as f64) < 0.1 * total as f64, "too much noise: {marked}/{total}");
    }

    #[test]
    fn join_values_have_realistic_length() {
        let pairs = web_tables(5);
        let avg: f64 = pairs
            .iter()
            .map(|p| p.column_pair().average_value_length())
            .sum::<f64>()
            / pairs.len() as f64;
        assert!((12.0..=45.0).contains(&avg), "avg join length {avg}");
    }
}
