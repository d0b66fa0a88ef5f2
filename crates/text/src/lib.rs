//! # tjoin-text
//!
//! Text substrate shared by the synthesis engine, the row matcher, and the
//! baselines. Since the columnar-arena refactor, the crate is organized
//! around one storage idea: **a column is a [`ColumnArena`]** — its cells
//! flattened into a single contiguous UTF-8 buffer plus a `u32` end-offset
//! per cell — and everything downstream (normalization, fingerprints, gram
//! iteration, stats, the inverted index, the corpus, the row scans)
//! operates on `&str` slices borrowed out of that buffer.
//!
//! ## The arena layout and its invariants
//!
//! A [`ColumnArena`] is `(text: String, offsets: Vec<u32>)` where cell `i`
//! is `text[offsets[i]..offsets[i+1]]`:
//!
//! * `offsets` always starts at 0, is non-decreasing, and has exactly
//!   `cell_count + 1` entries; every offset is a `char` boundary because
//!   cells are only ever appended as complete `&str`s.
//! * Both the cell count and the total byte length are checked against the
//!   `u32` space at construction — violations surface as a typed
//!   [`ArenaError`] (and as a sticky [`CorpusFailure`] when detected inside
//!   a corpus build), never as a silently wrapped cast.
//!
//! **Ownership:** normalization builds arenas. [`GramCorpus`] builds the
//! *normalized* arena for each interned column (the matcher reads every
//! column through a corpus), and the equi-join builds its own the same
//! way, by streaming
//! [`normalize_append`] straight into the buffer — zero per-cell
//! allocations. **Borrowing:** scans receive `&ColumnArena` (or any
//! [`CellText`] implementor) and slice cells on demand; nothing on the hot
//! path clones cell text. The `Vec<String>` representation is retained as
//! the differential reference — `&[String]` implements [`CellText`] too,
//! and the proptest suites assert the two representations produce
//! bit-identical matcher/join output.
//!
//! ## Modules
//!
//! * [`arena`] — the [`ColumnArena`] itself, the [`CellText`] abstraction
//!   over cell storage, and the [`checked_row_count`] guard for the `u32`
//!   row-id space.
//! * [`fxhash`] — a fast, non-cryptographic hasher plus `FxHashMap` /
//!   `FxHashSet` aliases (implemented in-repo so the workspace only depends on
//!   the approved crate set).
//! * [`ngram`] — character n-gram extraction: per-size [`char_ngrams`] and
//!   the fused zero-allocation multi-size stream
//!   [`for_each_ngram_in_sizes`] the arena-backed builds use.
//! * [`tokenize`] — separator-aware tokenization used to re-split
//!   maximal-length placeholders (Section 4.1.3 of the paper: "space and
//!   punctuations as possible common separators").
//! * [`common`] — common-substring detection between a source and a target
//!   string: the raw material for placeholders (Definition 4).
//! * [`index`] — an inverted n-gram index from n-grams to row ids (Section
//!   4.2.1: "the inverted index is organized as a hash with every n-gram ...
//!   as a key and the row ids where the n-gram appears as a data value").
//! * [`fingerprint`] — 64-bit identity-carrying string fingerprints shared
//!   by the inverted index's posting keys, the stats keys, the join layer's
//!   fingerprint equi-join, and the corpus's column keys.
//! * [`corpus`] — the repository-wide interned text corpus: columns
//!   normalized once into arenas (keyed by content fingerprint, identical
//!   for `Vec<String>` and arena inputs) with per-size-range
//!   `ColumnStats`/`NGramIndex` caching, so pairs sharing a column never
//!   re-derive its grams.
//! * [`par`] — the deterministic chunked parallel map over items (column
//!   pairs) shared by the batch runner's static-split oracle and
//!   discovery's signature pass. The matcher's row scan and the equi-join
//!   are serial.
//! * [`budget`] — per-run cost budgets: a wall-clock deadline plus
//!   deterministic row/byte admission caps, carried as a cheap atomic
//!   cancellation token checked at the pipeline's loop boundaries
//!   (matcher rows, coverage rows, join transformations). Overruns degrade
//!   the one pair, never the process.
//! * [`fault`] — panic-containment helpers (payload-preserving messages,
//!   poison-recovering locks) plus the deterministic fault-injection
//!   harness (`FaultPlan`, cfg-gated under `feature = "fault-injection"`)
//!   that drives the batch layer's differential fault gate.
//! * [`scoring`] — Inverse Row Frequency (IRF, Eq. 1) and the representative
//!   score (Rscore, Eq. 2), fingerprint-keyed so stats builds allocate no
//!   gram text.
//! * [`signature`] — cheap per-column discovery signatures: the exact
//!   size-`n_min` anchor fingerprint set (shortlist *pruning* — disjoint
//!   anchors prove zero candidate row matches). Cached in the corpus next
//!   to stats/index.
//! * [`normalize`] — case/whitespace normalization applied before matching
//!   (the paper ignores capitalization in its running examples):
//!   [`normalize_for_matching`] is the per-call reference, and
//!   [`normalize_append`] is the streaming form arena ingest uses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arena;
pub mod budget;
pub mod common;
pub mod corpus;
pub mod fault;
pub mod fingerprint;
pub mod fxhash;
pub mod index;
pub mod ngram;
pub mod normalize;
pub mod par;
pub mod scoring;
pub mod signature;
pub mod tokenize;

pub use arena::{checked_row_count, ArenaError, CellText, Cells, ColumnArena};
pub use budget::{BudgetExceeded, BudgetToken, RunBudget};
pub use common::{common_substring_matches, lcs_ratio, longest_common_substring, CommonMatch};
pub use corpus::{
    column_fingerprint, CorpusColumn, CorpusFailure, CorpusStats, GramCorpus, ServeStats,
};
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use fingerprint::{fingerprint64, fingerprint64_chain};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::NGramIndex;
pub use ngram::{char_ngrams, for_each_ngram_in_sizes, ngram_containment, ngram_jaccard};
pub use normalize::{normalize_append, normalize_for_matching, NormalizeOptions};
pub use par::chunk_map;
pub use scoring::{irf, rscore, ColumnStats};
pub use signature::ColumnSignature;
pub use tokenize::{is_separator_char, tokenize_with_separators, Token, TokenKind};
