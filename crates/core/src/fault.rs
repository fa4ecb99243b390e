//! Deterministic fault injection for the chaos/robustness test suite.
//!
//! A *failpoint* is a named site in the pipeline that panics on its Nth
//! crossing once armed. The registry is thread-local, so concurrent tests
//! (and the stress harness's writer threads) arm faults independently
//! without cross-talk; a disarmed site costs one TLS load and a branch,
//! negligible against the microsecond-scale operations the sites sit in.
//!
//! Seeding comes from the in-tree PRNG
//! ([`mqo_submod::prng`]): tests derive the N of "panic on the
//! Nth crossing" from a seed, so every chaos schedule is reproducible.
//!
//! Sites:
//! - [`FaultSite::OracleEval`] — entry of
//!   [`crate::engine::BestCostEngine::bc`] / `bc_many` (an oracle
//!   evaluation blowing up mid-round);
//! - [`FaultSite::AdmissionPrecommit`] — inside a batch admission
//!   ([`crate::session::OptimizedBatch::add_query`]), after the
//!   seeded expansion but *before* the evolution commit
//!   (the window the serving layer's round rollback must cover);
//! - [`FaultSite::ServeRound`] — entry of the serving layer's queue
//!   drain, while the writer lock is held but before any mutation (the
//!   poison-on-lock scenario: the panic escapes `submit_query` and
//!   poisons the writer mutex itself).

use std::cell::Cell;

/// Named failpoints; see the module docs for where each one sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// `BestCostEngine::bc` / `bc_many` entry.
    OracleEval,
    /// `BatchDag::add_query`, between the seeded expansion and the
    /// evolution commit.
    AdmissionPrecommit,
    /// `MqoService` drain entry, under the writer lock, pre-mutation.
    ServeRound,
}

const N_SITES: usize = 3;

thread_local! {
    /// Remaining crossings per site; 0 = disarmed, n = panic on the nth
    /// crossing from now.
    static ARMED: [Cell<u64>; N_SITES] = const { [const { Cell::new(0) }; N_SITES] };
}

/// Arms `site` on the current thread: the `nth` crossing of the site (1 =
/// the very next one) panics with an `"injected fault"` message, after
/// which the site is disarmed again. `nth = 0` disarms.
pub fn arm(site: FaultSite, nth: u64) {
    ARMED.with(|a| a[site as usize].set(nth));
}

/// Disarms every site on the current thread. Call from test teardown (and
/// defensively at test entry — a previously panicked test on a reused
/// test-runner thread may have left a site armed).
pub fn disarm_all() {
    ARMED.with(|a| {
        for cell in a {
            cell.set(0);
        }
    });
}

/// Crossing counter: decrements the armed countdown of `site` and panics
/// when it reaches zero. No-op (one TLS load) when disarmed. Called by the
/// instrumented sites; not intended for test code.
#[inline]
pub fn hit(site: FaultSite) {
    ARMED.with(|a| {
        let cell = &a[site as usize];
        let n = cell.get();
        if n == 0 {
            return;
        }
        cell.set(n - 1);
        if n == 1 {
            panic!("injected fault: {site:?}");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_are_free() {
        disarm_all();
        for _ in 0..1000 {
            hit(FaultSite::OracleEval);
        }
    }

    #[test]
    fn armed_site_fires_on_the_nth_crossing_then_disarms() {
        disarm_all();
        arm(FaultSite::AdmissionPrecommit, 3);
        hit(FaultSite::AdmissionPrecommit);
        hit(FaultSite::AdmissionPrecommit);
        hit(FaultSite::OracleEval); // other sites unaffected
        let r = std::panic::catch_unwind(|| hit(FaultSite::AdmissionPrecommit));
        assert!(r.is_err(), "third crossing must panic");
        hit(FaultSite::AdmissionPrecommit); // disarmed again
    }

    #[test]
    fn arming_is_thread_local() {
        disarm_all();
        arm(FaultSite::OracleEval, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Fresh thread: its TLS registry starts disarmed.
                hit(FaultSite::OracleEval);
            });
        });
        let r = std::panic::catch_unwind(|| hit(FaultSite::OracleEval));
        assert!(r.is_err(), "arming thread still fires");
        disarm_all();
    }
}
