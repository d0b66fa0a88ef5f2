//! Deterministic fault injection and poison-tolerant locking.
//!
//! The batch layer's robustness claims ("a panicking pair yields a failed
//! report, everything else is bit-identical to the fault-free oracle") are
//! only testable if faults can be injected *deterministically*: at a named
//! point, in a chosen pair, with a chosen effect. This module provides
//! that harness plus the small lock-recovery helpers production code uses
//! to survive poisoned mutexes.
//!
//! # Design
//!
//! * **Types are always compiled** — [`FaultSite`], [`FaultKind`],
//!   [`FaultPlan`], and the helpers below exist unconditionally, so
//!   signatures never change with the feature.
//! * **Firing is gated** behind `feature = "fault-injection"`. Without the
//!   feature, [`fire`] is an inlineable no-op and [`should_poison`] is
//!   `false`: production builds pay nothing.
//! * **Scoping is thread-local and keyed by pair.** The batch runner wraps
//!   each task in [`with_pair_scope`]; a fault `(pair, site, kind)` fires
//!   only when code reaches `site` while `pair`'s scope is active on the
//!   current thread. Injected panic payloads name the site and pair, so
//!   the resulting `PairError` messages are deterministic and assertable.
//!
//! # Effects
//!
//! * [`FaultKind::Panic`] — `fire(site)` panics with a deterministic
//!   message.
//! * [`FaultKind::Slow`] — `fire(site)` sleeps, so a configured deadline
//!   budget trips at the next check (the deterministic way to exercise
//!   `PairStatus::TimedOut`).
//! * [`FaultKind::PoisonLock`] — lock-owning sites consult
//!   [`should_poison`] and poison their mutex via [`poison_mutex`] before
//!   locking; production's [`lock_recover`] must shrug it off.

use std::any::Any;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Named injection points across the pipeline. All sites execute on the
/// batch worker thread driving the pair, so the thread-local scope set by
/// [`with_pair_scope`] is visible at every one of them. The corpus build
/// sites are the only lock-owning ones, so only they act on
/// [`FaultKind::PoisonLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entry of the row-matching phase (pipeline phase 1).
    MatchPhase,
    /// Inside a corpus column normalization build.
    CorpusColumnBuild,
    /// Inside a corpus `ColumnStats` build (also the poison point of the
    /// per-column stats cache lock).
    CorpusStatsBuild,
    /// Inside a corpus `NGramIndex` build (also the poison point of the
    /// per-column index cache lock).
    CorpusIndexBuild,
    /// Inside a corpus `ColumnSignature` build (also the poison point of the
    /// per-column signature cache lock).
    CorpusSignatureBuild,
    /// Entry of the synthesis phase (pipeline phase 2).
    SynthesisPhase,
    /// Entry of the synthesis coverage scan.
    CoverageScan,
    /// Entry of the equi-join phase (pipeline phase 4).
    JoinPhase,
    /// Entry of a batch scheduler task, *outside* every guarded pipeline
    /// phase — a panic here exercises the scheduler-level `catch_unwind`
    /// backstop (`PairPhase::Scheduler`) and its elapsed-at-failure
    /// attribution.
    SchedulerTask,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The effect an injected fault has when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a deterministic message naming the site and pair.
    Panic,
    /// Sleep for the given duration (drives deadline budgets).
    Slow(Duration),
    /// Poison the site's mutex before it is locked (lock-owning sites
    /// only; other sites ignore it).
    PoisonLock,
}

/// One registered fault: `(pair, site, kind)`, firing on every visit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultSpec {
    pair: usize,
    site: FaultSite,
    kind: FaultKind,
}

/// A deterministic injection plan: faults keyed by `(pair index, site)`.
/// Plans are plain data and always available; they only *do* anything when
/// executed under `feature = "fault-injection"` (see [`with_pair_scope`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: injects `kind` when `pair` reaches `site`.
    pub fn inject(mut self, pair: usize, site: FaultSite, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { pair, site, kind });
        self
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// panicking. Correct wherever the protected data is consistent at every
/// unlock point — the corpus caches qualify: their critical sections
/// insert fully built values, so a panic observed by the
/// lock (an injected poison, or a caught build panic on another thread)
/// never leaves partial state behind.
pub fn lock_recover<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload (`Box<dyn Any + Send>`) into a `String`,
/// preserving `&str` / `String` payloads verbatim.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Poisons `mutex` by panicking while holding it on a short-lived scoped
/// thread (the panic is contained there; the poison flag remains). Test
/// harness for [`lock_recover`] and the `PoisonLock` fault kind.
pub fn poison_mutex<T: ?Sized + Send>(mutex: &Mutex<T>) {
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let _guard = mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            panic!("poisoning mutex (injected)");
        });
        // The worker's panic is the point; swallow its Err so the poison —
        // not the panic — is what escapes this helper.
        let _ = handle.join();
    });
}

#[cfg(feature = "fault-injection")]
mod active {
    use super::FaultPlan;
    use std::cell::RefCell;

    /// The scope active on a thread: the pair index and the plan.
    pub(super) struct Scope {
        pub(super) pair: usize,
        pub(super) plan: FaultPlan,
    }

    thread_local! {
        /// The scope active on this thread, if any.
        pub(super) static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
    }

    /// RAII reset so an unwinding fault leaves no scope behind.
    pub(super) struct ScopeGuard;

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            SCOPE.with(|s| *s.borrow_mut() = None);
        }
    }
}

/// Runs `f` with `plan` active for `pair` on the current thread: any
/// [`fire`] / [`should_poison`] reached inside `f` (on this thread)
/// consults the plan. The scope is reset even if `f` unwinds. Without
/// `feature = "fault-injection"` this just runs `f`.
pub fn with_pair_scope<R>(plan: &FaultPlan, pair: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "fault-injection")]
    {
        active::SCOPE.with(|s| {
            *s.borrow_mut() = Some(active::Scope { pair, plan: plan.clone() })
        });
        let _guard = active::ScopeGuard;
        f()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = (plan, pair);
        f()
    }
}

/// Scope lookup: the active pair's first entry for `site` whose kind class
/// matches — `PoisonLock` for [`should_poison`], every other kind for
/// [`fire`] — so one site can both poison its lock and panic its build.
#[cfg(feature = "fault-injection")]
fn active_fault(site: FaultSite, want_poison: bool) -> Option<(usize, FaultKind)> {
    active::SCOPE.with(|s| {
        let scope = s.borrow();
        let scope = scope.as_ref()?;
        scope
            .plan
            .faults
            .iter()
            .find(|spec| {
                spec.pair == scope.pair
                    && spec.site == site
                    && (spec.kind == FaultKind::PoisonLock) == want_poison
            })
            .map(|spec| (scope.pair, spec.kind))
    })
}

/// Injection point: fires the active scope's fault for `site`, if any.
/// `Panic` panics with the deterministic message
/// `"injected panic at {site} (pair {pair})"`; `Slow` sleeps;
/// `PoisonLock` does nothing here (lock-owning sites use
/// [`should_poison`]). A no-op without `feature = "fault-injection"`.
#[inline]
pub fn fire(site: FaultSite) {
    #[cfg(feature = "fault-injection")]
    {
        match active_fault(site, false) {
            Some((pair, FaultKind::Panic)) => {
                panic!("injected panic at {site} (pair {pair})");
            }
            Some((_, FaultKind::Slow(duration))) => std::thread::sleep(duration),
            Some((_, FaultKind::PoisonLock)) | None => {}
        }
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = site;
}

/// Whether the active scope injects a `PoisonLock` at `site`. Lock-owning
/// sites call this before locking and poison via [`poison_mutex`] when
/// `true`. Always `false` without `feature = "fault-injection"`.
#[inline]
pub fn should_poison(site: FaultSite) -> bool {
    #[cfg(feature = "fault-injection")]
    {
        matches!(active_fault(site, true), Some((_, FaultKind::PoisonLock)))
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup() {
        let plan = FaultPlan::new()
            .inject(3, FaultSite::MatchPhase, FaultKind::Panic)
            .inject(1, FaultSite::JoinPhase, FaultKind::PoisonLock)
            .inject(3, FaultSite::CorpusStatsBuild, FaultKind::Slow(Duration::from_millis(5)));
        let fault_for = |pair: usize, site: FaultSite| {
            plan.faults.iter().find(|f| f.pair == pair && f.site == site).map(|f| f.kind)
        };
        assert_eq!(fault_for(3, FaultSite::MatchPhase), Some(FaultKind::Panic));
        assert_eq!(fault_for(3, FaultSite::JoinPhase), None);
        assert_eq!(fault_for(0, FaultSite::MatchPhase), None);
        assert_eq!(plan.faults.len(), 3);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn lock_recover_survives_poison() {
        let mutex = Mutex::new(41);
        poison_mutex(&mutex);
        assert!(mutex.is_poisoned());
        *lock_recover(&mutex) += 1;
        assert_eq!(*lock_recover(&mutex), 42);
    }

    #[test]
    fn panic_message_preserves_payloads() {
        let from_str = std::panic::catch_unwind(|| panic!("literal payload")).unwrap_err();
        assert_eq!(panic_message(&*from_str), "literal payload");
        let from_string =
            std::panic::catch_unwind(|| std::panic::panic_any(format!("built {}", 7))).unwrap_err();
        assert_eq!(panic_message(&*from_string), "built 7");
        let opaque = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(&*opaque), "non-string panic payload");
    }

    #[test]
    fn fire_is_inert_outside_a_scope() {
        // With or without the feature: no scope means nothing fires.
        fire(FaultSite::MatchPhase);
        assert!(!should_poison(FaultSite::CorpusStatsBuild));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn scoped_panic_fires_for_its_pair_only() {
        let plan = FaultPlan::new().inject(2, FaultSite::MatchPhase, FaultKind::Panic);
        // Pair 1: the fault is keyed to pair 2, nothing fires.
        with_pair_scope(&plan, 1, || fire(FaultSite::MatchPhase));
        // Pair 2: fires with the deterministic message.
        let payload = std::panic::catch_unwind(|| {
            with_pair_scope(&plan, 2, || fire(FaultSite::MatchPhase));
        })
        .unwrap_err();
        assert_eq!(panic_message(&*payload), "injected panic at MatchPhase (pair 2)");
        // The scope was reset despite the unwind.
        fire(FaultSite::MatchPhase);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn scoped_poison_consulted_at_site() {
        let plan = FaultPlan::new().inject(0, FaultSite::CorpusStatsBuild, FaultKind::PoisonLock);
        with_pair_scope(&plan, 0, || {
            assert!(should_poison(FaultSite::CorpusStatsBuild));
            assert!(!should_poison(FaultSite::MatchPhase));
        });
        assert!(!should_poison(FaultSite::CorpusStatsBuild));
    }
}
