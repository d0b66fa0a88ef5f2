//! Repository-wide interned text corpus.
//!
//! The repository workloads the paper targets (and GXJoin/QJoin evaluate)
//! join *many* column pairs, and the same column frequently appears in
//! several pairs — one master column probed against many candidate targets.
//! The per-pair matcher path re-derives that column's text artifacts on
//! every call: normalization of every cell, [`ColumnStats`] for IRF, and
//! the inverted [`NGramIndex`]. A [`GramCorpus`] amortizes that work across
//! the whole repository:
//!
//! * **Columns are interned by content.** [`GramCorpus::column`] keys each
//!   column by a 64-bit chained fingerprint of its cells
//!   ([`crate::fingerprint::fingerprint64_chain`] over per-cell
//!   [`crate::fingerprint::fingerprint64`]s, finished with the cell count —
//!   see [`column_fingerprint_on`]) and normalizes it exactly once, no matter
//!   how many pairs reference it. A debug-build shadow map holds the raw
//!   cells and asserts the column fingerprints never collide on the
//!   interned corpus.
//! * **Gram artifacts are cached per size range.** A [`CorpusColumn`] lazily
//!   builds — and then shares via `Arc` — its [`ColumnStats`] and
//!   [`NGramIndex`] per `(n_min, n_max)`, so a column probed by k pairs
//!   under one matcher configuration derives its grams once, not k times.
//! * **Construction is thread-safe, exactly-once, and concurrent across
//!   columns.** The intern map holds a per-column `OnceLock` cell; the
//!   global lock covers only the cell lookup/insert, and the O(cells)
//!   normalization runs outside it — workers interning *distinct* columns
//!   proceed in parallel, while racers on the *same* column wait on its
//!   cell and exactly one builds. Per-range artifact builds lock only
//!   their own column. [`GramCorpus::stats`] exposes the intern/build/hit
//!   counters the differential tests and the `join_throughput` bench
//!   assert on.
//! * **Build failures are contained, retried when transient, and sticky
//!   once exhausted.** Every lazy build runs under `catch_unwind` via
//!   [`CorpusRetryPolicy`]: a *panicking* build (the transient class —
//!   environmental, injected, or racy) is retried up to `max_attempts`
//!   with `backoff` between attempts, while a *typed* build error (the
//!   deterministic class — e.g. an [`ArenaError`] capacity overflow, a
//!   pure function of the inputs) short-circuits on the first attempt.
//!   Whatever the final outcome, it is recorded *in the cache entry*
//!   instead of poisoning the lock, so one bad column fails exactly the
//!   pairs that reference it — cleanly, via the `try_*` accessors — while
//!   every other entry keeps serving. Corpus locks are taken through
//!   [`crate::fault::lock_recover`], so even an externally poisoned mutex
//!   (exercised by the fault-injection harness) cannot take down later
//!   hits. Failed entries and per-artifact attempt totals are counted in
//!   [`CorpusStats`].
//! * **Entries are evictable, for the serving layer.** A long-lived corpus
//!   (the `tjoin-serve` resident cache) needs to bound memory:
//!   [`GramCorpus::resident_entries`] / [`GramCorpus::entry_bytes`] expose
//!   per-fingerprint byte accounting (arena bytes + offsets + stats maps +
//!   index postings via the `approximate_bytes` family), and
//!   [`GramCorpus::evict`] removes a completed entry so a later request
//!   re-interns it. Each built column carries a monotonically increasing
//!   [`CorpusColumn::generation`] tag, so "this entry was rebuilt after an
//!   eviction" is observable. Eviction can never change results — every
//!   artifact is a pure function of the cells, the options, and the size
//!   range — only counters and wall-clock.
//!
//! Everything a corpus serves is a pure function of the column's cells, the
//! corpus's [`NormalizeOptions`], and the requested size range — the same
//! inputs the per-call path feeds `ColumnStats::build`/`NGramIndex::build`
//! directly. Matcher output over a corpus is therefore bit-identical to the
//! per-call path, which `crates/join/tests/proptest_batch.rs` enforces
//! differentially.

use crate::arena::{ArenaError, CellText, ColumnArena};
use crate::fault::{self, FaultSite};
use crate::fingerprint::ColumnFingerprint;
use crate::fxhash::FxHashMap;
use crate::index::NGramIndex;
use crate::normalize::NormalizeOptions;
use crate::scoring::ColumnStats;
use crate::signature::ColumnSignature;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The content fingerprint a corpus keys a column by: a length-seeded chain
/// of every cell's [`fingerprint64`](crate::fingerprint::fingerprint64).
pub fn column_fingerprint(cells: &[String]) -> u64 {
    column_fingerprint_on(cells)
}

/// [`column_fingerprint`] over any [`CellText`] column. The fingerprint is
/// a pure function of the cell *contents*, so a `Vec<String>` column and a
/// [`ColumnArena`] holding the same cells intern to the same corpus entry.
pub fn column_fingerprint_on<C: CellText + ?Sized>(column: &C) -> u64 {
    let mut fingerprint = ColumnFingerprint::empty();
    for cell in column.cells() {
        fingerprint.absorb(cell);
    }
    fingerprint.finish()
}

/// A contained, sticky corpus build failure: the artifact whose lazy build
/// panicked plus the panic's message. Recorded in the cache entry, so every
/// later request for the same artifact observes the same failure instead of
/// a poisoned lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusFailure {
    /// Which artifact failed to build (`"column"`, `"stats"`, `"index"`,
    /// `"signature"`).
    pub artifact: &'static str,
    /// The contained panic's message.
    pub message: String,
}

impl CorpusFailure {
    fn new(artifact: &'static str, payload: Box<dyn std::any::Any + Send>) -> Self {
        Self {
            artifact,
            message: fault::panic_message(&*payload),
        }
    }

    fn from_arena(artifact: &'static str, error: ArenaError) -> Self {
        Self {
            artifact,
            message: error.to_string(),
        }
    }
}

impl fmt::Display for CorpusFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corpus {} build failed: {}", self.artifact, self.message)
    }
}

impl std::error::Error for CorpusFailure {}

/// Bounded retry policy for lazy corpus builds (ROADMAP fault-isolation
/// headroom: sticky failures used to be recorded on the *first* panic,
/// which turns a transient hiccup into a permanent per-(column, range)
/// outage in a long-lived resident corpus).
///
/// The policy distinguishes the two failure classes a build can hit:
///
/// * **Transient** — the build *panicked*. Retried up to `max_attempts`
///   total attempts, sleeping `backoff` between attempts. A build that
///   exhausts every attempt is recorded sticky, same as before.
/// * **Deterministic** — the build returned a *typed* error (an
///   [`ArenaError`] capacity overflow): a pure function of the inputs that
///   would fail identically forever. Short-circuits on the first attempt,
///   never retried.
///
/// The default (`max_attempts: 1`, zero backoff) reproduces the historical
/// fail-on-first-panic behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusRetryPolicy {
    /// Total build attempts (including the first); at least 1.
    pub max_attempts: usize,
    /// Sleep between consecutive attempts of one build.
    pub backoff: Duration,
}

impl Default for CorpusRetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 1, backoff: Duration::ZERO }
    }
}

impl CorpusRetryPolicy {
    /// A policy of `max_attempts` total attempts with `backoff` between
    /// them. Panics when `max_attempts` is 0 (a build must run at least
    /// once).
    pub fn new(max_attempts: usize, backoff: Duration) -> Self {
        assert!(max_attempts >= 1, "CorpusRetryPolicy requires at least one attempt");
        Self { max_attempts, backoff }
    }
}

/// Runs `build` under `policy`: panics are the transient class (retried),
/// typed `Err`s the deterministic class (returned immediately). Returns the
/// final outcome plus the number of attempts actually made — the count the
/// `*_attempts` counters in [`CorpusStats`] aggregate.
fn build_with_retry<A>(
    policy: CorpusRetryPolicy,
    artifact: &'static str,
    build: impl Fn() -> Result<A, CorpusFailure>,
) -> (Result<A, CorpusFailure>, usize) {
    let mut attempt = 0;
    loop {
        attempt += 1;
        match catch_unwind(AssertUnwindSafe(&build)) {
            // Ok(Ok) = success; Ok(Err) = deterministic typed failure —
            // either way, the outcome is final on this attempt.
            Ok(outcome) => return (outcome, attempt),
            Err(payload) => {
                if attempt >= policy.max_attempts {
                    return (Err(CorpusFailure::new(artifact, payload)), attempt);
                }
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff);
                }
            }
        }
    }
}

/// A completed cache entry: the built artifact (or its sticky contained
/// failure) plus how many build attempts it took — surfaced through
/// [`CorpusStats`] so retry behaviour is observable.
#[derive(Debug, Clone)]
struct Built<A> {
    result: Result<Arc<A>, CorpusFailure>,
    attempts: usize,
}

/// Intern/build/hit counters of a [`GramCorpus`] (see [`GramCorpus::stats`]).
///
/// `columns_interned` is the number of *distinct* columns normalized — each
/// exactly once — while `column_hits` counts the [`GramCorpus::column`]
/// calls served from cache: every hit is a whole-column normalization the
/// per-call path would have re-run. The same applies to the stats/index
/// pairs of counters. The `*_failed` counters record sticky build failures
/// (always 0 outside fault injection and pathological inputs), and the
/// `*_attempts` counters total the build attempts behind the cached
/// entries, so `column_attempts > columns_interned + columns_failed` means
/// the retry policy absorbed transient failures.
///
/// The snapshot covers the **currently resident** entries plus the
/// corpus-lifetime `column_hits` counter: evicting an entry (see
/// [`GramCorpus::evict`]) drops its built/failed/attempt contributions from
/// later snapshots. A serving layer that needs lifetime totals across
/// evictions keeps its own [`ServeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Distinct columns interned (normalization passes actually run).
    pub columns_interned: usize,
    /// `column()` calls served from the intern cache.
    pub column_hits: usize,
    /// Distinct `(column, size-range)` [`ColumnStats`] built.
    pub stats_built: usize,
    /// `stats()` calls served from cache.
    pub stats_hits: usize,
    /// Distinct `(column, size-range)` [`NGramIndex`]es built.
    pub indexes_built: usize,
    /// `index()` calls served from cache.
    pub index_hits: usize,
    /// Column builds that panicked and were recorded as sticky failures.
    pub columns_failed: usize,
    /// `ColumnStats` builds recorded as sticky failures.
    pub stats_failed: usize,
    /// `NGramIndex` builds recorded as sticky failures.
    pub indexes_failed: usize,
    /// Total column build attempts behind the resident entries (≥
    /// `columns_interned + columns_failed`; the excess is retried
    /// transient failures).
    pub column_attempts: usize,
    /// Total `ColumnStats` build attempts behind the resident entries.
    pub stats_attempts: usize,
    /// Total `NGramIndex` build attempts behind the resident entries.
    pub index_attempts: usize,
    /// Distinct `(column, n_min)` `ColumnSignature`s built.
    pub signatures_built: usize,
    /// `signature()` calls served from cache.
    pub signature_hits: usize,
    /// `ColumnSignature` builds recorded as sticky failures.
    pub signatures_failed: usize,
    /// Total `ColumnSignature` build attempts behind the resident entries.
    pub signature_attempts: usize,
}

impl CorpusStats {
    /// Whole-column normalization passes the corpus avoided relative to the
    /// per-call path (one per cache hit).
    pub fn normalizations_saved(&self) -> usize {
        self.column_hits
    }

    /// Total sticky build failures across all artifact kinds.
    pub fn total_failures(&self) -> usize {
        self.columns_failed + self.stats_failed + self.indexes_failed + self.signatures_failed
    }
}

/// A per-size-range artifact cache: the built artifact or its sticky
/// contained failure (plus its attempt count), keyed by `(n_min, n_max)`
/// — or by `n_min` alone for signatures, which read no other size.
type ArtifactCache<A, K = (usize, usize)> = FxHashMap<K, Built<A>>;

/// One interned column: its normalized cells — flattened into a
/// [`ColumnArena`] at build time — plus lazily built, cached gram artifacts
/// per `(n_min, n_max)` size range. Obtained from [`GramCorpus::column`];
/// shared across pairs (and worker threads) via `Arc`, so every scan worker
/// borrows `&str` slices out of the one arena instead of cloning cells.
#[derive(Debug)]
pub struct CorpusColumn {
    normalized: ColumnArena,
    generation: u64,
    retry: CorpusRetryPolicy,
    stats: Mutex<ArtifactCache<ColumnStats>>,
    indexes: Mutex<ArtifactCache<NGramIndex>>,
    signatures: Mutex<ArtifactCache<ColumnSignature, usize>>,
    stats_hits: AtomicUsize,
    index_hits: AtomicUsize,
    signature_hits: AtomicUsize,
}

impl CorpusColumn {
    fn build<C: CellText + ?Sized>(
        raw: &C,
        options: &NormalizeOptions,
        retry: CorpusRetryPolicy,
        generation: u64,
    ) -> Result<Self, ArenaError> {
        Ok(Self {
            normalized: ColumnArena::try_normalized(raw, options)?,
            generation,
            retry,
            stats: Mutex::new(FxHashMap::default()),
            indexes: Mutex::new(FxHashMap::default()),
            signatures: Mutex::new(FxHashMap::default()),
            stats_hits: AtomicUsize::new(0),
            index_hits: AtomicUsize::new(0),
            signature_hits: AtomicUsize::new(0),
        })
    }

    /// The column's normalized cells, in row order, as a shared arena.
    pub fn normalized(&self) -> &ColumnArena {
        &self.normalized
    }

    /// The corpus-unique, monotonically increasing build generation of this
    /// entry: a column re-interned after an eviction carries a strictly
    /// greater generation than the evicted build, which is how cache-layer
    /// tests prove "this is a rebuild, not the old entry".
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Estimated resident memory of this entry: the normalized arena (text
    /// buffer + offset array) plus every *successfully built* cached stats
    /// map and index posting list. This is the per-entry accounting the
    /// serving layer's byte-budgeted eviction sums; sticky failures hold no
    /// artifact and contribute nothing.
    pub fn approximate_bytes(&self) -> usize {
        let mut bytes = self.normalized.approximate_bytes();
        for built in fault::lock_recover(&self.stats).values() {
            if let Ok(stats) = &built.result {
                bytes += stats.approximate_bytes();
            }
        }
        for built in fault::lock_recover(&self.indexes).values() {
            if let Ok(index) = &built.result {
                bytes += index.approximate_bytes();
            }
        }
        for built in fault::lock_recover(&self.signatures).values() {
            if let Ok(signature) = &built.result {
                bytes += signature.approximate_bytes();
            }
        }
        bytes
    }

    /// The column's [`ColumnStats`] over grams of sizes `n_min..=n_max`,
    /// built on first request and cached (exactly-once under concurrency).
    /// A panicking build is retried per the corpus's [`CorpusRetryPolicy`];
    /// once attempts are exhausted it is contained and recorded as a sticky
    /// [`CorpusFailure`] served to every requester of this entry; the cache
    /// lock is never poisoned by it.
    pub fn try_stats(&self, n_min: usize, n_max: usize) -> Result<Arc<ColumnStats>, CorpusFailure> {
        if fault::should_poison(FaultSite::CorpusStatsBuild) {
            fault::poison_mutex(&self.stats);
        }
        let mut cache = fault::lock_recover(&self.stats);
        if let Some(entry) = cache.get(&(n_min, n_max)) {
            self.stats_hits.fetch_add(1, Ordering::Relaxed);
            return entry.result.clone();
        }
        let (result, attempts) = build_with_retry(self.retry, "stats", || {
            fault::fire(FaultSite::CorpusStatsBuild);
            Ok(Arc::new(ColumnStats::build_on(&self.normalized, n_min, n_max)))
        });
        cache.insert((n_min, n_max), Built { result: result.clone(), attempts });
        result
    }

    /// Infallible [`Self::try_stats`]: panics with the recorded failure's
    /// message when the entry is a sticky failure (callers that need
    /// containment use `try_stats`).
    pub fn stats(&self, n_min: usize, n_max: usize) -> Arc<ColumnStats> {
        self.try_stats(n_min, n_max).unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// The column's inverted [`NGramIndex`] over sizes `n_min..=n_max`,
    /// built on first request and cached (exactly-once under concurrency),
    /// with the same sticky-failure containment as [`Self::try_stats`].
    pub fn try_index(&self, n_min: usize, n_max: usize) -> Result<Arc<NGramIndex>, CorpusFailure> {
        if fault::should_poison(FaultSite::CorpusIndexBuild) {
            fault::poison_mutex(&self.indexes);
        }
        let mut cache = fault::lock_recover(&self.indexes);
        if let Some(entry) = cache.get(&(n_min, n_max)) {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return entry.result.clone();
        }
        let (result, attempts) = build_with_retry(self.retry, "index", || {
            fault::fire(FaultSite::CorpusIndexBuild);
            NGramIndex::try_build_on(&self.normalized, n_min, n_max)
                .map(Arc::new)
                .map_err(|e| CorpusFailure::from_arena("index", e))
        });
        cache.insert((n_min, n_max), Built { result: result.clone(), attempts });
        result
    }

    /// Infallible [`Self::try_index`]: panics with the recorded failure's
    /// message when the entry is a sticky failure.
    pub fn index(&self, n_min: usize, n_max: usize) -> Arc<NGramIndex> {
        self.try_index(n_min, n_max).unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// The column's discovery [`ColumnSignature`] with anchors of size
    /// `n_min`, built on first request and cached (exactly-once under
    /// concurrency), with the same sticky-failure containment as
    /// [`Self::try_stats`].
    pub fn try_signature(&self, n_min: usize) -> Result<Arc<ColumnSignature>, CorpusFailure> {
        if fault::should_poison(FaultSite::CorpusSignatureBuild) {
            fault::poison_mutex(&self.signatures);
        }
        let mut cache = fault::lock_recover(&self.signatures);
        if let Some(entry) = cache.get(&n_min) {
            self.signature_hits.fetch_add(1, Ordering::Relaxed);
            return entry.result.clone();
        }
        let (result, attempts) = build_with_retry(self.retry, "signature", || {
            fault::fire(FaultSite::CorpusSignatureBuild);
            Ok(Arc::new(ColumnSignature::build(&self.normalized, n_min)))
        });
        cache.insert(n_min, Built { result: result.clone(), attempts });
        result
    }

    /// Infallible [`Self::try_signature`]: panics with the recorded
    /// failure's message when the entry is a sticky failure.
    pub fn signature(&self, n_min: usize) -> Arc<ColumnSignature> {
        self.try_signature(n_min).unwrap_or_else(|failure| panic!("{failure}"))
    }
}

/// A cached intern cell: exactly one racer builds, and what it records —
/// the built column or its contained failure, plus the attempt count — is
/// what every requester of this fingerprint observes from then on.
type ColumnCell = OnceLock<Built<CorpusColumn>>;

/// A repository-wide interned corpus of column text (see the module docs).
///
/// One corpus serves one [`NormalizeOptions`]; callers whose configuration
/// normalizes differently must not share it (the matcher asserts this).
///
/// The intern map holds a per-key `OnceLock` cell, so the global mutex is
/// held only to insert or look up the cell — the O(cells) normalization
/// build runs *outside* it. Concurrent workers interning distinct columns
/// proceed in parallel; only racers on the same column wait on its cell
/// (and exactly one of them builds).
#[derive(Debug)]
pub struct GramCorpus {
    options: NormalizeOptions,
    retry: CorpusRetryPolicy,
    columns: Mutex<FxHashMap<u64, Arc<ColumnCell>>>,
    column_hits: AtomicUsize,
    /// Build-generation counter: every column build attempt draws a fresh,
    /// strictly increasing tag (see [`CorpusColumn::generation`]).
    generations: AtomicU64,
    /// Debug-build collision check: the raw cells behind every fingerprint,
    /// compared on each cache hit. At 64 chained bits a repository would
    /// need billions of distinct columns before a collision becomes likely;
    /// if one ever occurs, failing loudly beats silently serving another
    /// column's grams.
    #[cfg(debug_assertions)]
    shadow: Mutex<FxHashMap<u64, Vec<String>>>,
}

impl GramCorpus {
    /// Creates an empty corpus normalizing with `options`, under the
    /// default (no-retry) build policy.
    pub fn new(options: NormalizeOptions) -> Self {
        Self::with_retry(options, CorpusRetryPolicy::default())
    }

    /// Creates an empty corpus normalizing with `options` whose lazy builds
    /// run under `retry` (see [`CorpusRetryPolicy`]).
    pub fn with_retry(options: NormalizeOptions, retry: CorpusRetryPolicy) -> Self {
        Self {
            options,
            retry,
            columns: Mutex::new(FxHashMap::default()),
            column_hits: AtomicUsize::new(0),
            generations: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            shadow: Mutex::new(FxHashMap::default()),
        }
    }

    /// The normalization this corpus applies to every interned column.
    pub fn options(&self) -> &NormalizeOptions {
        &self.options
    }

    /// The retry policy every lazy build of this corpus runs under.
    pub fn retry_policy(&self) -> CorpusRetryPolicy {
        self.retry
    }

    /// Interns `raw` (keyed by [`column_fingerprint`]) and returns its
    /// entry; the column is normalized exactly once across all calls, from
    /// any thread. The normalization runs outside the global intern lock —
    /// distinct columns build concurrently, racers on the same column wait
    /// on its cell. A panicking build is contained and recorded as this
    /// fingerprint's sticky [`CorpusFailure`].
    pub fn try_column(&self, raw: &[String]) -> Result<Arc<CorpusColumn>, CorpusFailure> {
        self.try_column_on(raw)
    }

    /// [`Self::try_column`] over any [`CellText`] column: a raw
    /// [`ColumnArena`] from ingest and a `Vec<String>` column with the same
    /// cells fingerprint identically and share one intern entry. A column
    /// that exceeds the arena's `u32` capacity is recorded as this
    /// fingerprint's sticky failure, like any other contained build error.
    pub fn try_column_on<C: CellText + ?Sized>(
        &self,
        raw: &C,
    ) -> Result<Arc<CorpusColumn>, CorpusFailure> {
        if fault::should_poison(FaultSite::CorpusColumnBuild) {
            fault::poison_mutex(&self.columns);
        }
        let key = column_fingerprint_on(raw);
        let cell = {
            let mut columns = fault::lock_recover(&self.columns);
            if let Some(cell) = columns.get(&key) {
                #[cfg(debug_assertions)]
                {
                    let shadow = fault::lock_recover(&self.shadow);
                    // Invariant is local (audited): every insert into
                    // `columns` writes the matching `shadow` entry inside
                    // the same `columns`-lock critical section below, so a
                    // key found in `columns` is always shadowed. Debug-only
                    // code either way — never reachable in release builds.
                    let prev = shadow.get(&key).expect("shadowed column present");
                    debug_assert!(
                        prev.iter().map(String::as_str).eq(raw.cells()),
                        "column fingerprint collision: two distinct columns hash to {key:#x}"
                    );
                }
                Arc::clone(cell)
            } else {
                let cell = Arc::new(ColumnCell::new());
                columns.insert(key, Arc::clone(&cell));
                #[cfg(debug_assertions)]
                fault::lock_recover(&self.shadow)
                    .insert(key, raw.cells().map(str::to_owned).collect());
                cell
            }
        };
        let mut built = false;
        let entry = cell.get_or_init(|| {
            built = true;
            let (result, attempts) = build_with_retry(self.retry, "column", || {
                fault::fire(FaultSite::CorpusColumnBuild);
                // Each attempt draws a fresh generation; the successful
                // attempt's tag is the one the entry keeps. Uniqueness and
                // monotonicity — not density — are the contract.
                let generation = self.generations.fetch_add(1, Ordering::Relaxed);
                CorpusColumn::build(raw, &self.options, self.retry, generation)
                    .map(Arc::new)
                    .map_err(|e| CorpusFailure::from_arena("column", e))
            });
            Built { result, attempts }
        });
        if !built {
            // Served from cache (whether the cell pre-existed or another
            // racer built it first): one whole-column normalization saved.
            self.column_hits.fetch_add(1, Ordering::Relaxed);
        }
        entry.result.clone()
    }

    /// Infallible [`Self::try_column`]: panics with the recorded failure's
    /// message when the entry is a sticky failure (callers that need
    /// containment use `try_column`).
    pub fn column(&self, raw: &[String]) -> Arc<CorpusColumn> {
        self.try_column(raw).unwrap_or_else(|failure| panic!("{failure}"))
    }

    /// Number of distinct columns interned (successfully built) so far.
    pub fn column_count(&self) -> usize {
        fault::lock_recover(&self.columns)
            .values()
            .filter(|cell| matches!(cell.get(), Some(built) if built.result.is_ok()))
            .count()
    }

    /// The resident, successfully built entries as `(fingerprint,
    /// approximate bytes)` pairs, sorted by fingerprint (a deterministic
    /// order for tests and eviction sweeps). In-flight builds and sticky
    /// failures are not listed — only entries [`Self::evict`] would free
    /// bytes for.
    pub fn resident_entries(&self) -> Vec<(u64, usize)> {
        let columns = fault::lock_recover(&self.columns);
        let mut entries: Vec<(u64, usize)> = columns
            .iter()
            .filter_map(|(&fingerprint, cell)| match cell.get() {
                Some(built) => match &built.result {
                    Ok(column) => Some((fingerprint, column.approximate_bytes())),
                    Err(_) => None,
                },
                None => None,
            })
            .collect();
        entries.sort_unstable_by_key(|&(fingerprint, _)| fingerprint);
        entries
    }

    /// Total approximate bytes of every resident built entry (the sum of
    /// [`Self::resident_entries`]) — what a byte budget is enforced
    /// against.
    pub fn resident_bytes(&self) -> usize {
        self.resident_entries().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// The approximate byte footprint of the built entry for `fingerprint`,
    /// or `None` when the fingerprint is absent, still building, or a
    /// sticky failure.
    pub fn entry_bytes(&self, fingerprint: u64) -> Option<usize> {
        let columns = fault::lock_recover(&self.columns);
        let built = columns.get(&fingerprint)?.get()?;
        match &built.result {
            Ok(column) => Some(column.approximate_bytes()),
            Err(_) => None,
        }
    }

    /// Whether a *completed, successfully built* entry for `fingerprint` is
    /// resident (the serving layer's hit test).
    pub fn contains(&self, fingerprint: u64) -> bool {
        let columns = fault::lock_recover(&self.columns);
        matches!(
            columns.get(&fingerprint).and_then(|cell| cell.get()),
            Some(built) if built.result.is_ok()
        )
    }

    /// Evicts the completed entry for `fingerprint`, returning the
    /// approximate bytes freed — the built column's footprint, or 0 for a
    /// sticky failure (failures hold no artifact but occupy a map slot).
    /// Returns `None` when the fingerprint is absent **or its build is
    /// still in flight** (an in-flight cell is owned by the builder racer;
    /// evicting it would re-introduce the duplicated-build race interning
    /// exists to prevent). A later request for the same content re-interns
    /// and rebuilds under a fresh, strictly greater generation; because
    /// every artifact is a pure function of cells/options/range, eviction
    /// never changes results.
    pub fn evict(&self, fingerprint: u64) -> Option<usize> {
        let mut columns = fault::lock_recover(&self.columns);
        let freed = match columns.get(&fingerprint) {
            Some(cell) => match cell.get() {
                Some(built) => match &built.result {
                    Ok(column) => column.approximate_bytes(),
                    Err(_) => 0,
                },
                None => return None, // in-flight build: not evictable
            },
            None => return None,
        };
        columns.remove(&fingerprint);
        #[cfg(debug_assertions)]
        fault::lock_recover(&self.shadow).remove(&fingerprint);
        Some(freed)
    }

    /// A snapshot of the intern/build/hit counters (see [`CorpusStats`]).
    /// Columns whose build is still in flight on another thread are not
    /// counted yet.
    pub fn stats(&self) -> CorpusStats {
        let columns = fault::lock_recover(&self.columns);
        let mut stats = CorpusStats {
            columns_interned: 0,
            column_hits: self.column_hits.load(Ordering::Relaxed),
            ..CorpusStats::default()
        };
        for entry in columns.values().filter_map(|cell| cell.get()) {
            stats.column_attempts += entry.attempts;
            let column = match &entry.result {
                Ok(column) => column,
                Err(_) => {
                    stats.columns_failed += 1;
                    continue;
                }
            };
            stats.columns_interned += 1;
            for built in fault::lock_recover(&column.stats).values() {
                stats.stats_attempts += built.attempts;
                match &built.result {
                    Ok(_) => stats.stats_built += 1,
                    Err(_) => stats.stats_failed += 1,
                }
            }
            stats.stats_hits += column.stats_hits.load(Ordering::Relaxed);
            for built in fault::lock_recover(&column.indexes).values() {
                stats.index_attempts += built.attempts;
                match &built.result {
                    Ok(_) => stats.indexes_built += 1,
                    Err(_) => stats.indexes_failed += 1,
                }
            }
            stats.index_hits += column.index_hits.load(Ordering::Relaxed);
            for built in fault::lock_recover(&column.signatures).values() {
                stats.signature_attempts += built.attempts;
                match &built.result {
                    Ok(_) => stats.signatures_built += 1,
                    Err(_) => stats.signatures_failed += 1,
                }
            }
            stats.signature_hits += column.signature_hits.load(Ordering::Relaxed);
        }
        stats
    }
}

/// Lifetime counters of a **resident corpus cache** (the `tjoin-serve`
/// layer), reported next to [`CorpusStats`] on batch outcomes. Where
/// `CorpusStats` snapshots the currently resident entries, `ServeStats`
/// accumulates across evictions for the cache's whole lifetime; all
/// counters are updated serially at request admission/release, so their
/// values are deterministic for a given request sequence regardless of
/// worker thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Distinct requested columns served from the resident cache.
    pub hits: usize,
    /// Distinct requested columns that were not resident (built during the
    /// run that requested them).
    pub misses: usize,
    /// Columns newly retained by the cache after a run.
    pub inserts: usize,
    /// Entries evicted to satisfy the byte budget.
    pub evictions: usize,
    /// Approximate bytes currently resident (after the last release).
    pub bytes_resident: usize,
    /// Requests queued and not yet run at the time of the snapshot.
    pub queue_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[&str]) -> Vec<String> {
        values.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn same_content_interns_once() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let a = col(&["Rafiei, Davood", "Bowling, Michael"]);
        // A *different allocation* with the same content must hit the same
        // entry: interning is by content, not identity.
        let first = corpus.column(&a);
        let second = corpus.column(&a.clone());
        assert!(Arc::ptr_eq(&first, &second));
        let stats = corpus.stats();
        assert_eq!(stats.columns_interned, 1);
        assert_eq!(stats.column_hits, 1);
        assert_eq!(stats.normalizations_saved(), 1);
        assert_eq!(stats.total_failures(), 0);
    }

    #[test]
    fn signatures_cache_exactly_once_and_count_bytes() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let column = corpus.column(&col(&["Rafiei, Davood", "Bowling, Michael"]));
        let before = column.approximate_bytes();
        let first = column.signature(4);
        let second = column.signature(4);
        assert!(Arc::ptr_eq(&first, &second), "cached signature is shared");
        let other_size = column.signature(5);
        assert!(!Arc::ptr_eq(&first, &other_size), "anchor sizes cache separately");
        let stats = corpus.stats();
        assert_eq!(stats.signatures_built, 2);
        assert_eq!(stats.signature_hits, 1);
        assert_eq!(stats.signatures_failed, 0);
        assert_eq!(stats.signature_attempts, 2);
        // The signature build reads no stats, and the resident footprint
        // grows by the cached signatures.
        assert_eq!(stats.stats_built, 0);
        assert!(column.approximate_bytes() > before);
    }

    #[test]
    fn distinct_columns_get_distinct_entries() {
        // Exercises the debug-build fingerprint-collision check across many
        // near-identical columns (single-cell edits, reorders, length
        // changes) — the shapes where a weak chain would collide.
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let mut entries = Vec::new();
        for i in 0..200 {
            let c = col(&[&format!("value-{i:03}"), "shared suffix"]);
            entries.push(corpus.column(&c));
        }
        entries.push(corpus.column(&col(&["shared suffix", "value-000"])));
        entries.push(corpus.column(&col(&["value-000"])));
        entries.push(corpus.column(&col(&["value-000", "shared suffix", ""])));
        assert_eq!(corpus.column_count(), 203);
        for (i, a) in entries.iter().enumerate() {
            for b in &entries[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        assert_eq!(corpus.stats().column_hits, 0);
    }

    #[test]
    fn normalization_applied_once_and_matches_per_call() {
        use crate::normalize::normalize_for_matching;
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let raw = col(&["  Rafiei,   DAVOOD ", "M  Bowling"]);
        let entry = corpus.column(&raw);
        let expected: Vec<String> = raw
            .iter()
            .map(|v| normalize_for_matching(v, &NormalizeOptions::default()))
            .collect();
        let normalized: Vec<&str> = entry.normalized().cells().collect();
        assert_eq!(normalized, expected.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(entry.normalized().cell(0), "rafiei, davood");
    }

    #[test]
    fn arena_column_interns_to_same_entry_as_vec_column() {
        // Interning is by cell *content*: the same column handed over as a
        // Vec<String> and as a raw ColumnArena must hit one entry.
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let raw = col(&["Rafiei, Davood", "Bowling, Michael"]);
        let arena = ColumnArena::from_cells(raw.as_slice());
        assert_eq!(column_fingerprint(&raw), column_fingerprint_on(&arena));
        let from_vec = corpus.column(&raw);
        let from_arena = corpus.try_column_on(&arena).unwrap();
        assert!(Arc::ptr_eq(&from_vec, &from_arena));
        let stats = corpus.stats();
        assert_eq!(stats.columns_interned, 1);
        assert_eq!(stats.column_hits, 1);
    }

    #[test]
    fn stats_and_index_cached_per_size_range() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let entry = corpus.column(&col(&["abcdef", "abcxyz"]));
        let s1 = entry.stats(2, 4);
        let s2 = entry.stats(2, 4);
        assert!(Arc::ptr_eq(&s1, &s2));
        let s3 = entry.stats(3, 5); // different range: a different artifact
        assert!(!Arc::ptr_eq(&s1, &s3));
        let i1 = entry.index(2, 4);
        let i2 = entry.index(2, 4);
        assert!(Arc::ptr_eq(&i1, &i2));
        let stats = corpus.stats();
        assert_eq!(stats.stats_built, 2);
        assert_eq!(stats.stats_hits, 1);
        assert_eq!(stats.indexes_built, 1);
        assert_eq!(stats.index_hits, 1);
        // The cached artifacts equal a direct per-call build.
        let direct = ColumnStats::build_on(entry.normalized(), 2, 4);
        assert_eq!(s1.row_count, direct.row_count);
        assert_eq!(s1.distinct_ngrams(), direct.distinct_ngrams());
        assert_eq!(i1.rows_containing("abc"), &[0, 1]);
    }

    #[test]
    fn concurrent_interning_builds_each_column_once() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let shared = col(&["Rafiei, Davood", "Bowling, Michael", "Gosgnach, Simon"]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let entry = corpus.column(&shared);
                    let _ = entry.stats(4, 8);
                    let _ = entry.index(4, 8);
                });
            }
        });
        let stats = corpus.stats();
        assert_eq!(stats.columns_interned, 1);
        assert_eq!(stats.column_hits, 7);
        assert_eq!(stats.stats_built, 1);
        assert_eq!(stats.indexes_built, 1);
        assert_eq!(stats.stats_hits + 1 + stats.index_hits + 1, 16);
    }

    #[test]
    fn empty_column_interns_fine() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let entry = corpus.column(&[]);
        assert!(entry.normalized().is_empty());
        assert_eq!(entry.stats(4, 20).row_count, 0);
        assert_eq!(entry.index(4, 20).row_count(), 0);
        // Empty and single-empty-cell columns are distinct contents.
        let single_empty = corpus.column(&col(&[""]));
        assert!(!Arc::ptr_eq(&entry, &single_empty));
    }

    #[test]
    fn column_fingerprint_distinguishes_shape() {
        assert_ne!(
            column_fingerprint(&col(&["a", "b"])),
            column_fingerprint(&col(&["b", "a"]))
        );
        assert_ne!(column_fingerprint(&col(&["ab"])), column_fingerprint(&col(&["a", "b"])));
        assert_ne!(column_fingerprint(&[]), column_fingerprint(&col(&[""])));
    }

    #[test]
    fn entry_bytes_grow_with_cached_artifacts() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let raw = col(&["abcdef", "abcxyz"]);
        let fp = column_fingerprint(&raw);
        let entry = corpus.column(&raw);
        let base = entry.approximate_bytes();
        assert!(base >= entry.normalized().approximate_bytes());
        let _ = entry.stats(2, 4);
        let with_stats = entry.approximate_bytes();
        assert!(with_stats > base);
        let _ = entry.index(2, 4);
        let with_index = entry.approximate_bytes();
        assert!(with_index > with_stats);
        // The corpus-level accounting sees the same footprint.
        assert_eq!(corpus.entry_bytes(fp), Some(with_index));
        assert_eq!(corpus.resident_entries(), vec![(fp, with_index)]);
        assert_eq!(corpus.resident_bytes(), with_index);
        assert_eq!(corpus.entry_bytes(fp ^ 1), None);
    }

    #[test]
    fn evict_then_reintern_bumps_generation() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let a = col(&["alpha", "beta"]);
        let b = col(&["gamma"]);
        let fp_a = column_fingerprint(&a);
        let first = corpus.column(&a);
        let stats = first.stats(4, 20);
        let index = first.index(4, 20);
        let signature = first.signature(4);
        let kept = corpus.column(&b);
        assert!(corpus.contains(fp_a));
        let freed = corpus.evict(fp_a).expect("completed entry evicts");
        assert!(freed > 0);
        assert!(!corpus.contains(fp_a));
        assert_eq!(corpus.entry_bytes(fp_a), None);
        assert_eq!(corpus.evict(fp_a), None); // already gone
        assert_eq!(corpus.column_count(), 1);
        // Unrelated entries are untouched.
        assert!(Arc::ptr_eq(&kept, &corpus.column(&b)));
        // Re-interning rebuilds: a fresh entry under a strictly greater
        // generation, with identical content (eviction never changes what
        // a corpus serves, only when it is built).
        let second = corpus.column(&a);
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(second.generation() > first.generation());
        assert_eq!(first.normalized(), second.normalized());
        // The stats snapshot covers resident entries only: the evicted
        // artifacts left it, and the rebuilt ones enter it as fresh builds.
        let evicted = corpus.stats();
        assert_eq!(evicted.columns_interned, 2);
        let built = |s: CorpusStats| (s.stats_built, s.indexes_built, s.signatures_built);
        assert_eq!(built(evicted), (0, 0, 0));
        // Every artifact is a pure function of the cells: the rebuilt
        // entry serves exactly what the evicted one served.
        assert_eq!(*second.stats(4, 20), *stats);
        assert_eq!(*second.index(4, 20), *index);
        assert_eq!(*second.signature(4), *signature);
        let rebuilt = corpus.stats();
        assert_eq!(built(rebuilt), (1, 1, 1));
        assert_eq!((rebuilt.stats_hits, rebuilt.index_hits, rebuilt.signature_hits), (0, 0, 0));
    }

    #[test]
    fn attempts_counters_match_builds_without_faults() {
        let corpus = GramCorpus::new(NormalizeOptions::default());
        assert_eq!(corpus.retry_policy(), CorpusRetryPolicy::default());
        let entry = corpus.column(&col(&["abcdef", "abcxyz"]));
        let _ = entry.stats(2, 4);
        let _ = entry.stats(3, 5);
        let _ = entry.index(2, 4);
        let stats = corpus.stats();
        assert_eq!(stats.column_attempts, 1);
        assert_eq!(stats.stats_attempts, 2);
        assert_eq!(stats.index_attempts, 1);
    }

    #[test]
    fn deterministic_failures_short_circuit_retry() {
        use std::cell::Cell;
        // A typed error is a pure function of the inputs: even a generous
        // policy must not re-run the build.
        let calls = Cell::new(0usize);
        let policy = CorpusRetryPolicy::new(5, Duration::ZERO);
        let (result, attempts) = build_with_retry::<CorpusColumn>(policy, "column", || {
            calls.set(calls.get() + 1);
            Err(CorpusFailure::from_arena(
                "column",
                ArenaError::RowCountOverflow { rows: 7 },
            ))
        });
        assert!(result.is_err());
        assert_eq!(attempts, 1);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempt_policy_rejected() {
        let _ = CorpusRetryPolicy::new(0, Duration::ZERO);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_panic_recovers_under_retry() {
        use crate::fault::{FaultKind, FaultPlan};
        let corpus = GramCorpus::with_retry(
            NormalizeOptions::default(),
            CorpusRetryPolicy::new(3, Duration::ZERO),
        );
        // Panic once, then succeed: the transient shape the retry policy
        // exists for.
        let plan =
            FaultPlan::new().inject_limited(0, FaultSite::CorpusColumnBuild, FaultKind::Panic, 1);
        let raw = col(&["abcdef", "abcxyz"]);
        let entry = fault::with_pair_scope(&plan, 0, || corpus.try_column(&raw))
            .expect("transient failure recovers");
        assert_eq!(entry.normalized().cell(0), "abcdef");
        let stats = corpus.stats();
        assert_eq!(stats.columns_interned, 1);
        assert_eq!(stats.columns_failed, 0);
        assert_eq!(stats.column_attempts, 2); // one absorbed panic + success
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn exhausted_retries_stay_sticky() {
        use crate::fault::{FaultKind, FaultPlan};
        let corpus = GramCorpus::with_retry(
            NormalizeOptions::default(),
            CorpusRetryPolicy::new(3, Duration::ZERO),
        );
        // Unlimited panic: every attempt fails, the failure goes sticky.
        let plan = FaultPlan::new().inject(0, FaultSite::CorpusStatsBuild, FaultKind::Panic);
        let entry = corpus.column(&col(&["abcdef", "abcxyz"]));
        let failure =
            fault::with_pair_scope(&plan, 0, || entry.try_stats(2, 4)).unwrap_err();
        assert_eq!(failure.artifact, "stats");
        // Sticky: a later call outside any fault scope observes the same
        // recorded failure instead of rebuilding.
        assert_eq!(entry.try_stats(2, 4).unwrap_err(), failure);
        let stats = corpus.stats();
        assert_eq!(stats.stats_failed, 1);
        assert_eq!(stats.stats_attempts, 3); // every allowed attempt ran
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn slow_faults_are_absorbed_in_one_attempt() {
        use crate::fault::{FaultKind, FaultPlan};
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let plan = FaultPlan::new().inject_limited(
            0,
            FaultSite::CorpusIndexBuild,
            FaultKind::Slow(Duration::from_millis(1)),
            1,
        );
        let entry = corpus.column(&col(&["abcdef"]));
        let index = fault::with_pair_scope(&plan, 0, || entry.try_index(2, 3)).unwrap();
        assert_eq!(index.row_count(), 1);
        // Slowness is not failure: one attempt, nothing retried.
        assert_eq!(corpus.stats().index_attempts, 1);
    }

    #[test]
    fn poisoned_corpus_locks_are_recovered_not_fatal() {
        // Poison every corpus lock from a side thread, then use the corpus
        // normally: lock_recover must serve consistent cached state.
        let corpus = GramCorpus::new(NormalizeOptions::default());
        let entry = corpus.column(&col(&["abcdef", "abcxyz"]));
        let before = entry.stats(2, 4);
        fault::poison_mutex(&corpus.columns);
        fault::poison_mutex(&entry.stats);
        fault::poison_mutex(&entry.indexes);
        let again = corpus.column(&col(&["abcdef", "abcxyz"]));
        assert!(Arc::ptr_eq(&entry, &again));
        assert!(Arc::ptr_eq(&before, &again.stats(2, 4)));
        let _ = again.index(2, 4);
        let stats = corpus.stats();
        assert_eq!(stats.columns_interned, 1);
        assert_eq!(stats.stats_built, 1);
        assert_eq!(stats.indexes_built, 1);
        assert_eq!(stats.total_failures(), 0);
    }
}
