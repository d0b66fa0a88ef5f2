//! Simulated real-world benchmarks.
//!
//! The paper evaluates on three real benchmarks that cannot be redistributed
//! (Google Fusion web tables from Zhu et al., the SyGuS-Comp/FlashFill
//! spreadsheet corpus, and City of Edmonton open data joined with white-pages
//! listings). These generators produce table pairs with the same
//! *joinability structure* so that every experiment exercises the same code
//! paths:
//!
//! * [`web_tables`] — 31 pairs over 17 topics, ~92 rows per table, values
//!   around 31 characters, multiple formatting rules per pair plus noise rows
//!   not coverable by any string transformation.
//! * [`spreadsheet`] — 108 pairs of short FlashFill-style cleaning tasks,
//!   ~34 rows per table, mostly coverable by a single transformation.
//! * [`open_data`] — one large address-join pair with a highly skewed n-gram
//!   distribution, so that n-gram row matching produces a huge, low-precision
//!   candidate set (the regime the paper reports for Open data).

mod formats;
mod opendata;
mod spreadsheet;
mod web;

pub use formats::{
    format_date, format_person, format_phone, DateStyle, PersonName, PersonStyle, PhoneStyle,
};
pub use opendata::open_data;
pub use spreadsheet::spreadsheet;
pub use web::web_tables;
