//! # tjoin-serve
//!
//! A serving layer over the batch join runner: a **resident corpus cache**
//! that keeps [`GramCorpus`] column artifacts (normalized arenas, gram
//! statistics, n-gram indexes) alive *across* runs, plus request admission
//! in front of the work-stealing scheduler. Repeated requests over
//! overlapping repositories — the many-tenant regime the paper's
//! repository-scale experiments imply — skip re-normalization and
//! re-indexing entirely on warm columns.
//!
//! # Residency
//!
//! [`ResidentCorpus`] owns one `Arc<GramCorpus>` shared with every
//! [`BatchJoinRunner`] hooked up via
//! [`BatchJoinRunner::with_corpus`]. Columns are keyed by their content
//! fingerprint ([`tjoin_text::column_fingerprint`]), so two requests
//! containing the same cells — same repository resubmitted, or distinct
//! repositories sharing a column — resolve to one resident entry. Because
//! every corpus artifact is a pure function of (cells, normalize options,
//! gram-size range), **residency can never change results**: a warm run is
//! bit-identical to a cold one, and mid-stream eviction only changes
//! counters and wall-clock. The differential suite
//! (`tests/proptest_serve.rs`) proves this rather than assuming it.
//!
//! A request passes through three serialized phases:
//!
//! 1. **reserve** (at admission): the request's columns are
//!    fingerprint-pre-scanned and *pinned* — per-reference counts of
//!    queued interest, two references per pair (source + target). Each
//!    distinct fingerprint is counted right here as a *hit* (resident, or
//!    already pending a build by an earlier queued request) or a *miss*
//!    (this reservation becomes the fingerprint's **designated builder**),
//!    and takes its LRU touch in first-appearance order;
//! 2. **begin** (at dequeue): a phase-order assertion — every counter
//!    decision was already made at reserve time;
//! 3. **release** (after the run): each designated-builder fingerprint
//!    that the run actually made resident counts as an *insert*, the pins
//!    drop, and the cache evicts down to its byte budget.
//!
//! # Eviction invariants
//!
//! The byte budget ([`ServeConfig::byte_budget`]) is **hard at release
//! boundaries**: after every release, resident bytes are `<=` the budget —
//! even when that means evicting the entry the run just used, or a budget
//! smaller than any single column leaves the cache empty. *During* a run
//! the corpus may transiently overshoot (results are sacrosanct; the
//! budget is enforced at the serialized release points, not mid-build).
//! Victims are chosen by the ascending order key
//!
//! ```text
//! (pinned, ever_hit, last_touch, fingerprint)
//! ```
//!
//! so eviction prefers, in order: columns **no queued request still
//! references** (the refcount pre-scan — fully-consumed columns go first,
//! eagerly), columns **never once served warm** (streamed through once and
//! never reused), then **least-recently-used**, with the fingerprint as a
//! deterministic tie-break. Pinned entries are evicted only as a last
//! resort; a queued request whose pinned column was sacrificed simply
//! rebuilds it — a counter change, never a result change.
//!
//! Entry footprints are never remembered from admission time: artifacts
//! built *after* a column became resident (an index requested later, a
//! discovery anchor set) grow the entry, so [`ResidentCorpus`] recomputes
//! sizes at every enforcement point and trusts only the bytes
//! [`GramCorpus::evict`] reports it actually freed.
//!
//! # Admission
//!
//! [`JoinService`] puts a bounded FIFO queue (the classic bounded-buffer
//! backpressure shape) in front of the runner:
//! [`JoinService::submit`] pins the request's columns and enqueues it, or
//! rejects it with the typed [`AdmissionError::QueueFull`] when
//! `queue_capacity` requests are already waiting — the caller sheds load
//! explicitly instead of queueing without bound. [`JoinService::run_next`]
//! dequeues in FIFO order, runs the request through the shared runner, and
//! stamps the release-time [`ServeStats`] snapshot onto
//! [`BatchJoinOutcome::serve`], next to the corpus's own
//! [`CorpusStats`](tjoin_text::CorpusStats).
//!
//! # Determinism
//!
//! All cache bookkeeping happens under one mutex, *outside* the parallel
//! run, and every **logical** counter decision — hit, miss, builder
//! designation, LRU touch — is made at *reserve* time, which
//! [`JoinService::submit`] serializes in admission order (the reservation
//! is taken while the queue lock is held). Insert accounting belongs to
//! the designated builder alone, so release order cannot shuffle it. The
//! consequence, proven by `tests/proptest_serve.rs`: for a fixed
//! submission sequence, the quiescent hits / misses / inserts are
//! identical whether the queue is drained by one thread or many, at any
//! runner thread budget, and per-ticket results stay bit-identical to a
//! serial drain. Evictions and resident bytes remain *physical* counters:
//! they report what eviction actually did, which under concurrent drains
//! depends on release interleaving (never on results — residency cannot
//! change results).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use tjoin_datasets::ColumnPair;
use tjoin_join::{BatchJoinOutcome, BatchJoinRunner, JoinPipelineConfig, RowMatchingStrategy};
// Poison recovery keeps cache metadata consistent: every mutation completes
// before its guard drops.
use tjoin_text::fault::lock_recover;
use tjoin_text::{column_fingerprint, GramCorpus, NormalizeOptions, ServeStats};

/// Configuration of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Resident-corpus byte budget, enforced at every release; `None`
    /// disables eviction (the corpus grows with the workload).
    pub byte_budget: Option<usize>,
    /// Maximum queued (admitted but not yet run) requests; submissions
    /// beyond it are rejected with [`AdmissionError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            byte_budget: None,
            queue_capacity: 64,
        }
    }
}

/// Typed admission rejection — the caller's signal to shed load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded request queue is at capacity.
    QueueFull {
        /// The configured [`ServeConfig::queue_capacity`].
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "request queue is full ({capacity} requests waiting)")
            }
        }
    }
}

impl Error for AdmissionError {}

/// Per-fingerprint cache metadata. An entry exists while the fingerprint
/// is pinned by a queued request or resident in the corpus.
#[derive(Debug, Default, Clone, Copy)]
struct EntryMeta {
    /// Outstanding queued references (each pair pins source + target).
    pinned: usize,
    /// Whether this entry was ever served warm from residency.
    ever_hit: bool,
    /// Logical clock of the last reserve-time touch (0 = never touched).
    last_touch: u64,
    /// Queued reservations designated to build this column (a later
    /// reservation seeing `pending_builds > 0` counts a hit: by its turn
    /// in the FIFO the column is expected warm).
    pending_builds: usize,
    /// Set when eviction removes this column within the current build
    /// generation, so the designated builder's release still counts its
    /// insert even if another request's release evicted the column first.
    built: bool,
}

/// Lifetime counters of one [`ResidentCorpus`].
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    hits: usize,
    misses: usize,
    inserts: usize,
    evictions: usize,
}

#[derive(Debug, Default)]
struct CacheState {
    clock: u64,
    entries: BTreeMap<u64, EntryMeta>,
    totals: Totals,
}

/// A request's pinned interest in the cache, produced by
/// [`ResidentCorpus::reserve`] and consumed by
/// [`ResidentCorpus::release`]. Dropping a reservation without releasing
/// it leaks its pins; the phased API expects reserve → begin → release.
#[derive(Debug)]
pub struct Reservation {
    /// Distinct column fingerprints in first-appearance order.
    fingerprints: Vec<u64>,
    /// Pin counts per fingerprint (parallel to `fingerprints`).
    references: Vec<usize>,
    /// Per-fingerprint warmth decided at [`ResidentCorpus::reserve`]:
    /// resident in the corpus, or already pending a build by an earlier
    /// queued reservation. `!warm[i]` marks this reservation as the
    /// fingerprint's *designated builder* (parallel to `fingerprints`).
    warm: Vec<bool>,
    begun: bool,
}

/// The resident corpus cache: one shared [`GramCorpus`] plus the
/// byte-budgeted LRU metadata that decides what stays resident between
/// runs (see the crate docs for the full invariants). Entries enter when a
/// run interns a column and leave only by eviction; a resident entry's
/// cells never change, so its fingerprint stays its key.
#[derive(Debug)]
pub struct ResidentCorpus {
    corpus: Arc<GramCorpus>,
    byte_budget: Option<usize>,
    state: Mutex<CacheState>,
}

impl ResidentCorpus {
    /// Creates a resident cache whose corpus normalizes with `options`
    /// (must match the runner's matcher configuration — the runner asserts
    /// this). `config.queue_capacity` only matters to [`JoinService`].
    pub fn new(options: NormalizeOptions, config: ServeConfig) -> Self {
        Self {
            corpus: Arc::new(GramCorpus::new(options)),
            byte_budget: config.byte_budget,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// The shared corpus handle, for [`BatchJoinRunner::with_corpus`].
    pub fn shared(&self) -> Arc<GramCorpus> {
        Arc::clone(&self.corpus)
    }

    /// The underlying corpus (e.g. for [`GramCorpus::stats`], reported
    /// next to this cache's [`ServeStats`]).
    pub fn corpus(&self) -> &GramCorpus {
        &self.corpus
    }

    /// Phase 1 (admission): fingerprint-pre-scans `repository`, pins every
    /// referenced column — two references per pair — and makes every
    /// logical counter decision for the request: each distinct fingerprint
    /// is a hit when warm (resident, or pending a build by an earlier
    /// queued reservation) or a miss that designates this reservation its
    /// builder, and takes its LRU touch in first-appearance order. Because
    /// [`JoinService::submit`] reserves while holding the queue lock,
    /// these decisions are serialized in admission order no matter how
    /// many threads later drain the queue.
    pub fn reserve(&self, repository: &[ColumnPair]) -> Reservation {
        let mut fingerprints = Vec::new();
        let mut references = Vec::new();
        for pair in repository {
            for column in [&pair.source, &pair.target] {
                let fingerprint = column_fingerprint(column);
                match fingerprints.iter().position(|&f| f == fingerprint) {
                    Some(i) => references[i] += 1,
                    None => {
                        fingerprints.push(fingerprint);
                        references.push(1);
                    }
                }
            }
        }
        let mut warm = Vec::with_capacity(fingerprints.len());
        let mut state = lock_recover(&self.state);
        let state = &mut *state;
        for (&fingerprint, &count) in fingerprints.iter().zip(&references) {
            let meta = state.entries.entry(fingerprint).or_default();
            meta.pinned += count;
            state.clock += 1;
            meta.last_touch = state.clock;
            let is_warm = self.corpus.contains(fingerprint) || meta.pending_builds > 0;
            if is_warm {
                state.totals.hits += 1;
                meta.ever_hit = true;
            } else {
                state.totals.misses += 1;
                meta.pending_builds += 1;
                meta.built = false;
            }
            warm.push(is_warm);
        }
        Reservation {
            fingerprints,
            references,
            warm,
            begun: false,
        }
    }

    /// Phase 2 (dequeue): marks the reservation begun. Every counter
    /// decision was already made at reserve time; this is the phase-order
    /// assertion that keeps the reserve → begin → release discipline
    /// checked at runtime.
    ///
    /// # Panics
    ///
    /// Panics if the reservation was already begun.
    pub fn begin(&self, reservation: &mut Reservation) {
        assert!(!reservation.begun, "reservation begun twice");
        reservation.begun = true;
    }

    /// Phase 3 (after the run): counts an insert for each designated-
    /// builder fingerprint the run actually made resident, drops the pins,
    /// evicts down to the byte budget, and returns the post-release
    /// [`ServeStats`] snapshot (with `queue_depth` 0 — [`JoinService`]
    /// overwrites it).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::begin`] was never called on the reservation.
    pub fn release(&self, reservation: Reservation) -> ServeStats {
        assert!(reservation.begun, "release of a reservation that never began");
        let mut state = lock_recover(&self.state);
        let state = &mut *state;
        for (i, &fingerprint) in reservation.fingerprints.iter().enumerate() {
            let meta = state.entries.entry(fingerprint).or_default();
            if !reservation.warm[i] {
                // Designated builder: the insert is this reservation's to
                // count. `built` covers the column being evicted by another
                // request's release before this one got here; a column the
                // run never interned (Golden strategy, aborted pair) counts
                // nothing.
                if self.corpus.contains(fingerprint) || meta.built {
                    state.totals.inserts += 1;
                }
                meta.pending_builds = meta.pending_builds.saturating_sub(1);
            }
            meta.pinned = meta.pinned.saturating_sub(reservation.references[i]);
        }
        self.evict_to_budget(state);
        // Drop metadata nothing references: unpinned, no pending build,
        // and not resident.
        let corpus = &self.corpus;
        state.entries.retain(|&fingerprint, meta| {
            meta.pinned > 0 || meta.pending_builds > 0 || corpus.contains(fingerprint)
        });
        self.snapshot(state)
    }

    /// A point-in-time counter snapshot (no release; `queue_depth` 0).
    pub fn stats(&self) -> ServeStats {
        let state = lock_recover(&self.state);
        self.snapshot(&state)
    }

    fn snapshot(&self, state: &CacheState) -> ServeStats {
        ServeStats {
            hits: state.totals.hits,
            misses: state.totals.misses,
            inserts: state.totals.inserts,
            evictions: state.totals.evictions,
            bytes_resident: self.corpus.resident_bytes(),
            queue_depth: 0,
        }
    }

    /// Evicts ascending by `(pinned, ever_hit, last_touch, fingerprint)`
    /// until resident bytes fit the budget (see the crate docs).
    ///
    /// Entry sizes are **recomputed here**, not remembered from admission:
    /// artifacts built after a column became resident (indexes, signatures)
    /// grow its footprint, and an admission-time
    /// size would understate both what is resident and what eviction
    /// frees. Each successful eviction subtracts the bytes [`GramCorpus::
    /// evict`] *actually* reclaimed, and the loop re-snapshots until a
    /// fresh sum confirms the budget holds (or nothing more can be
    /// evicted — every survivor's build is in flight).
    fn evict_to_budget(&self, state: &mut CacheState) {
        let Some(budget) = self.byte_budget else {
            return;
        };
        loop {
            let mut resident = self.corpus.resident_entries();
            let mut total: usize = resident.iter().map(|&(_, bytes)| bytes).sum();
            if total <= budget {
                return;
            }
            resident.sort_by_key(|&(fingerprint, _)| {
                let meta = state.entries.get(&fingerprint).copied().unwrap_or_default();
                (meta.pinned > 0, meta.ever_hit, meta.last_touch, fingerprint)
            });
            let mut evicted_any = false;
            for (fingerprint, _) in resident {
                if total <= budget {
                    break;
                }
                if let Some(freed) = self.corpus.evict(fingerprint) {
                    total = total.saturating_sub(freed);
                    evicted_any = true;
                    state.totals.evictions += 1;
                    // Remember the build this eviction erased, so the column's
                    // designated builder still counts its insert at release.
                    if let Some(meta) = state.entries.get_mut(&fingerprint) {
                        meta.built = true;
                    }
                }
            }
            if !evicted_any {
                return;
            }
        }
    }
}

/// One admitted, not-yet-run request.
#[derive(Debug)]
struct QueuedRequest {
    ticket: u64,
    repository: Vec<ColumnPair>,
    reservation: Reservation,
}

#[derive(Debug, Default)]
struct ServiceQueue {
    next_ticket: u64,
    waiting: VecDeque<QueuedRequest>,
}

/// Request admission in front of a shared [`BatchJoinRunner`]: a bounded
/// FIFO queue whose entries pin their columns in the [`ResidentCorpus`]
/// from submission to release (see the crate docs).
#[derive(Debug)]
pub struct JoinService {
    resident: ResidentCorpus,
    runner: BatchJoinRunner,
    queue: Mutex<ServiceQueue>,
    capacity: usize,
}

impl JoinService {
    /// Builds a service whose runner applies `config` under `threads`
    /// shared worker threads, with the resident corpus wired in. The
    /// corpus normalizes exactly as the n-gram matcher does (under
    /// [`RowMatchingStrategy::Golden`] the corpus goes unused but the
    /// admission queue still applies).
    pub fn new(config: JoinPipelineConfig, threads: usize, serve: ServeConfig) -> Self {
        let options = match &config.matching {
            RowMatchingStrategy::NGram(matcher) => matcher.normalize,
            RowMatchingStrategy::Golden => NormalizeOptions::default(),
        };
        let capacity = serve.queue_capacity;
        let resident = ResidentCorpus::new(options, serve);
        let runner = BatchJoinRunner::new(config, threads).with_corpus(resident.shared());
        Self {
            resident,
            runner,
            queue: Mutex::new(ServiceQueue::default()),
            capacity,
        }
    }

    /// The resident cache (counters, corpus stats, byte budget).
    pub fn resident(&self) -> &ResidentCorpus {
        &self.resident
    }

    /// Admits `repository`, pinning its columns and queueing it FIFO.
    /// Returns the request's ticket, or [`AdmissionError::QueueFull`] —
    /// without touching the cache — when the queue is at capacity.
    pub fn submit(&self, repository: Vec<ColumnPair>) -> Result<u64, AdmissionError> {
        let mut queue = lock_recover(&self.queue);
        if queue.waiting.len() >= self.capacity {
            return Err(AdmissionError::QueueFull {
                capacity: self.capacity,
            });
        }
        let reservation = self.resident.reserve(&repository);
        let ticket = queue.next_ticket;
        queue.next_ticket += 1;
        queue.waiting.push_back(QueuedRequest {
            ticket,
            repository,
            reservation,
        });
        Ok(ticket)
    }

    /// Queued (admitted but not yet run) requests.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.queue).waiting.len()
    }

    /// Dequeues and runs the oldest request; `None` when the queue is
    /// empty. The outcome carries the release-time [`ServeStats`] with the
    /// post-dequeue queue depth.
    pub fn run_next(&self) -> Option<(u64, BatchJoinOutcome)> {
        let QueuedRequest {
            ticket,
            repository,
            mut reservation,
        } = lock_recover(&self.queue).waiting.pop_front()?;
        self.resident.begin(&mut reservation);
        let mut outcome = self.runner.run(&repository);
        let mut stats = self.resident.release(reservation);
        stats.queue_depth = self.queue_depth();
        outcome.serve = Some(stats);
        Some((ticket, outcome))
    }

    /// Runs every queued request in FIFO order.
    pub fn drain(&self) -> Vec<(u64, BatchJoinOutcome)> {
        let mut outcomes = Vec::new();
        while let Some(entry) = self.run_next() {
            outcomes.push(entry);
        }
        outcomes
    }

    /// Lifetime cache counters with the current queue depth.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.resident.stats();
        stats.queue_depth = self.queue_depth();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tjoin_datasets::RepositoryConfig;

    /// Runs `repository` through `runner` with the full reserve → begin →
    /// release cycle and stamps the release snapshot onto the outcome. The
    /// runner must share the cache's corpus for residency to have any
    /// effect.
    fn run_cycle(
        resident: &ResidentCorpus,
        runner: &BatchJoinRunner,
        repository: &[ColumnPair],
    ) -> BatchJoinOutcome {
        let mut reservation = resident.reserve(repository);
        resident.begin(&mut reservation);
        let mut outcome = runner.run(repository);
        outcome.serve = Some(resident.release(reservation));
        outcome
    }

    fn assert_outcomes_identical(a: &BatchJoinOutcome, b: &BatchJoinOutcome, context: &str) {
        assert_eq!(a.reports.len(), b.reports.len(), "{context}: report count");
        assert_eq!(a.faults, b.faults, "{context}: fault tallies");
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            assert_eq!(ra.name, rb.name, "{context}: report order");
            assert_eq!(ra.status, rb.status, "{context}: status of {}", ra.name);
            assert_eq!(
                ra.outcome.predicted_pairs, rb.outcome.predicted_pairs,
                "{context}: predicted pairs of {}",
                ra.name
            );
            assert_eq!(ra.outcome.metrics, rb.outcome.metrics, "{context}: metrics of {}", ra.name);
            assert_eq!(
                ra.outcome.synthesis.cover, rb.outcome.synthesis.cover,
                "{context}: synthesis cover of {}",
                ra.name
            );
            // Every synthesis counter matches; the timings are measurements.
            let (mut sa, sb) = (ra.outcome.synthesis.stats.clone(), &rb.outcome.synthesis.stats);
            sa.timings = sb.timings;
            assert_eq!(&sa, sb, "{context}: synthesis counters of {}", ra.name);
        }
        assert_eq!(a.metrics.micro, b.metrics.micro, "{context}: micro");
        assert_eq!(a.metrics.macro_f1, b.metrics.macro_f1, "{context}: macro");
    }

    fn small_repo(seed: u64) -> Vec<ColumnPair> {
        RepositoryConfig::new(3, 16).generate(seed)
    }

    #[test]
    fn warm_run_is_bit_identical_and_counts_hits() {
        let resident = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        let runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 2).with_corpus(resident.shared());
        let repo = small_repo(21);

        let cold = run_cycle(&resident, &runner, &repo);
        let cold_stats = cold.serve.expect("serve stats stamped");
        assert_eq!(cold_stats.hits, 0);
        assert_eq!(cold_stats.misses, 6, "3 pairs x 2 distinct columns");
        assert_eq!(cold_stats.inserts, 6);
        assert_eq!(cold_stats.evictions, 0);
        assert!(cold_stats.bytes_resident > 0);

        let warm = run_cycle(&resident, &runner, &repo);
        let warm_stats = warm.serve.expect("serve stats stamped");
        assert_outcomes_identical(&cold, &warm, "warm vs cold");
        assert_eq!(warm_stats.hits, 6, "every column resident on the second run");
        assert_eq!(warm_stats.misses, 6, "lifetime counter keeps the cold misses");
        assert_eq!(warm_stats.inserts, 6);
        assert_eq!(warm_stats.bytes_resident, cold_stats.bytes_resident);
    }

    #[test]
    fn hard_budget_holds_after_every_release() {
        let unbounded = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        let budgeted = ResidentCorpus::new(
            NormalizeOptions::default(),
            ServeConfig {
                byte_budget: Some(2_000),
                ..ServeConfig::default()
            },
        );
        let free_runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 2).with_corpus(unbounded.shared());
        let tight_runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 2).with_corpus(budgeted.shared());
        for seed in [1, 2, 1, 3, 1] {
            let repo = small_repo(seed);
            let free = run_cycle(&unbounded, &free_runner, &repo);
            let tight = run_cycle(&budgeted, &tight_runner, &repo);
            assert_outcomes_identical(&free, &tight, "eviction must not change results");
            let stats = tight.serve.expect("serve stats stamped");
            assert!(
                stats.bytes_resident <= 2_000,
                "budget overshot: {} bytes resident",
                stats.bytes_resident
            );
        }
        assert!(
            budgeted.stats().evictions > 0,
            "a 2 kB budget must evict under multi-repository traffic"
        );
    }

    #[test]
    fn lru_prefers_never_hit_then_oldest() {
        let hot = small_repo(5);
        let cold = small_repo(6);
        // Size the budget off an unbudgeted probe: fits the hot repository
        // with slack, but not both repositories at once.
        let probe = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        let probe_runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 1).with_corpus(probe.shared());
        run_cycle(&probe, &probe_runner, &hot);
        let budget = probe.stats().bytes_resident * 3 / 2;

        let resident = ResidentCorpus::new(
            NormalizeOptions::default(),
            ServeConfig {
                byte_budget: Some(budget),
                ..ServeConfig::default()
            },
        );
        let runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 1).with_corpus(resident.shared());
        run_cycle(&resident, &runner, &hot);
        let second = run_cycle(&resident, &runner, &hot).serve.expect("serve stats stamped");
        assert_eq!(second.hits, 6, "warm rerun marks the hot columns ever-hit");
        run_cycle(&resident, &runner, &cold);
        let fourth = run_cycle(&resident, &runner, &hot).serve.expect("serve stats stamped");
        assert_eq!(
            fourth.hits,
            12,
            "the cold run must evict its own never-hit columns, not the hot ones"
        );
        assert!(fourth.evictions > 0, "two repositories cannot both fit the budget");
        for pair in &hot {
            assert!(resident.corpus().contains(column_fingerprint(&pair.source)));
            assert!(resident.corpus().contains(column_fingerprint(&pair.target)));
        }
    }

    #[test]
    fn queue_rejects_beyond_capacity_and_preserves_fifo() {
        let service = JoinService::new(
            JoinPipelineConfig::default(),
            2,
            ServeConfig {
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        let first = service.submit(small_repo(31)).expect("first admitted");
        let second = service.submit(small_repo(32)).expect("second admitted");
        assert_eq!(
            service.submit(small_repo(33)),
            Err(AdmissionError::QueueFull { capacity: 2 }),
        );
        assert_eq!(service.queue_depth(), 2);
        assert_eq!(service.stats().queue_depth, 2);

        let outcomes = service.drain();
        let tickets: Vec<u64> = outcomes.iter().map(|&(t, _)| t).collect();
        assert_eq!(tickets, vec![first, second], "FIFO order");
        assert_eq!(outcomes[0].1.serve.expect("stamped").queue_depth, 1);
        assert_eq!(outcomes[1].1.serve.expect("stamped").queue_depth, 0);
        assert_eq!(service.queue_depth(), 0);
        // Capacity freed: the rejected repository now admits.
        assert!(service.submit(small_repo(33)).is_ok());
        assert_eq!(
            format!("{}", AdmissionError::QueueFull { capacity: 2 }),
            "request queue is full (2 requests waiting)"
        );
    }

    #[test]
    fn submitted_requests_pin_their_columns_against_eviction() {
        // Tiny budget, but the queued request's pins keep its columns
        // evicting last: after run 1 evicts to budget, run 2 (same repo,
        // already queued at pin time) still proceeds correctly.
        let service = JoinService::new(
            JoinPipelineConfig::default(),
            2,
            ServeConfig {
                byte_budget: Some(1),
                ..ServeConfig::default()
            },
        );
        let repo = small_repo(41);
        service.submit(repo.clone()).expect("admitted");
        service.submit(repo).expect("admitted");
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 2);
        let last = outcomes[1].1.serve.expect("stamped");
        assert!(last.bytes_resident <= 1, "budget of one byte empties the cache");
        assert!(last.evictions >= last.inserts, "every insert must eventually evict");
        assert_outcomes_identical(
            &outcomes[0].1,
            &outcomes[1].1,
            "eviction between identical requests",
        );
    }

    #[test]
    fn shared_columns_across_repositories_resolve_to_one_entry() {
        let resident = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        let runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 2).with_corpus(resident.shared());
        let repo = small_repo(51);
        let mut reservation = resident.reserve(&repo);
        assert_eq!(reservation.fingerprints.len(), 6);
        resident.begin(&mut reservation);
        runner.run(&repo);
        resident.release(reservation);

        // A second repository re-using one column pair of the first adds
        // only the two genuinely new columns.
        let mut overlap = small_repo(52);
        overlap[0] = repo[0].clone();
        let warm = run_cycle(&resident, &runner, &overlap).serve.expect("stamped");
        assert_eq!(warm.hits, 2, "the shared pair's two columns hit");
        assert_eq!(warm.misses, 6 + 4, "lifetime misses: first repo + two new pairs");
    }

    #[test]
    fn discovery_signatures_ride_the_resident_corpus() {
        use tjoin_join::DiscoveryConfig;
        let resident = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        let runner =
            BatchJoinRunner::new(JoinPipelineConfig::default(), 2).with_corpus(resident.shared());
        let repo = small_repo(71);
        let discovery = DiscoveryConfig::paper_default();

        let cold = runner.discover_and_run(&repo, &discovery);
        let between = resident.corpus().stats();
        assert!(between.signatures_built > 0, "cold discovery signs the repository");

        let warm = runner.discover_and_run(&repo, &discovery);
        let after = resident.corpus().stats();
        assert_eq!(
            after.signatures_built, between.signatures_built,
            "warm discovery must not rebuild signatures"
        );
        assert!(
            after.signature_hits > between.signature_hits,
            "warm discovery is served from the resident signature cache"
        );
        assert_outcomes_identical(&cold.outcome, &warm.outcome, "warm vs cold discovery");
        assert_eq!(cold.shortlist.ranked.len(), warm.shortlist.ranked.len());
    }

    #[test]
    fn release_evicts_entries_whose_artifacts_grew_after_admission() {
        // Size the budget around the *arena-only* footprint of one repo's
        // columns, then grow the entries after admission by building
        // indexes and signatures directly. The next release must recompute
        // the grown footprints and evict back under the budget — an
        // admission-time size would say everything still fits.
        let repo = small_repo(81);
        let probe = ResidentCorpus::new(NormalizeOptions::default(), ServeConfig::default());
        for pair in &repo {
            probe.corpus().try_column_on(&pair.source).unwrap();
            probe.corpus().try_column_on(&pair.target).unwrap();
        }
        let arena_only = probe.corpus().resident_bytes();

        let budget = arena_only * 2;
        let resident = ResidentCorpus::new(
            NormalizeOptions::default(),
            ServeConfig {
                byte_budget: Some(budget),
                ..ServeConfig::default()
            },
        );
        let mut reservation = resident.reserve(&repo);
        resident.begin(&mut reservation);
        for pair in &repo {
            resident.corpus().try_column_on(&pair.source).unwrap();
            resident.corpus().try_column_on(&pair.target).unwrap();
        }
        let after_admission = resident.release(reservation);
        assert!(after_admission.bytes_resident <= budget, "arenas alone fit the budget");
        assert_eq!(after_admission.evictions, 0);

        // Post-admission growth: index + signature per column.
        for pair in &repo {
            for column in [&pair.source, &pair.target] {
                let entry = resident.corpus().try_column_on(column).unwrap();
                let _ = entry.try_index(4, 8).unwrap();
                let _ = entry.try_signature(4).unwrap();
            }
        }
        assert!(
            resident.corpus().resident_bytes() > budget,
            "the grown artifacts must overshoot the budget for this test to bite"
        );

        // An empty release is a pure budget-enforcement boundary.
        let mut empty = resident.reserve(&[]);
        resident.begin(&mut empty);
        let stats = resident.release(empty);
        assert!(
            stats.bytes_resident <= budget,
            "release must recompute grown entry bytes: {} resident > {} budget",
            stats.bytes_resident,
            budget
        );
        assert!(stats.evictions > 0, "the grown entries forced evictions");
    }

    #[test]
    fn golden_strategy_serves_without_a_corpus() {
        let config = JoinPipelineConfig {
            matching: RowMatchingStrategy::Golden,
            ..JoinPipelineConfig::default()
        };
        let service = JoinService::new(config, 2, ServeConfig::default());
        service.submit(small_repo(61)).expect("admitted");
        let outcomes = service.drain();
        assert_eq!(outcomes.len(), 1);
        let stats = outcomes[0].1.serve.expect("stamped");
        // The runner never interns under Golden: the pre-scan counts
        // misses, nothing becomes resident.
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.bytes_resident, 0);
    }
}
