//! The greedy selection kernel: Greedy (Algorithm 1 of Roy et al.) and
//! MarginalGreedy (Algorithm 2), each eager or lazy, as one loop.
//!
//! A run grows a set `X` one element at a time. [`Ranking`] scores a
//! candidate `x` by its marginal `f'(x, X)` (Algorithm 1, the heuristic the
//! paper compares against) or by `f'_M(x, X)/c(x)` under a decomposition
//! `f = f_M − c` (Algorithm 2, with Theorem 1 under the canonical one). The
//! ratio ranking adds elements of non-positive cost in a final free phase
//! and prunes an element for good once its ratio is ≤ 1 (Section 5.1: by
//! submodularity of `f_M` it only falls). [`Evaluation`] is how a round
//! finds its best candidate: one [`SetFunction::marginal_many`] batch over
//! every live candidate, or Minoux's lazy heap (Section 5.2), where after an
//! eager first round only stale tops are re-evaluated. Under submodularity
//! a stale score bounds the current one from above, so lazy picks what
//! eager picks with at most as many evaluations.
//!
//! The stop rules (the ranking's own, [`Config::max_picks`],
//! [`Config::deadline`], [`Config::benefit_floor`]), the candidate order
//! and the certificate, [`Outcome::remaining_bound`], are each written once.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::bitset::BitSet;
use crate::decompose::Decomposition;
use crate::function::SetFunction;

use super::{Outcome, Pick};

/// How the kernel scores a candidate `x` against the current set `X`.
#[derive(Clone, Copy, Debug)]
pub enum Ranking<'a> {
    /// Algorithm 1: the marginal `f'(x, X)`; a pick must exceed 0.
    Benefit,
    /// Algorithm 2: `f'_M(x, X)/c(x) = (f'(x, X) + c(x))/c(x)` under the
    /// decomposition; a pick must exceed 1.
    Ratio(&'a Decomposition),
}

/// How a round finds its best candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluation {
    /// Every live candidate, in one [`SetFunction::marginal_many`] batch.
    Eager,
    /// The Minoux heap: an eager first round, then stale tops only.
    Lazy,
}

/// The stop rules every greedy run shares beyond its ranking's own.
#[derive(Clone, Copy, Debug, Default)]
pub struct Config {
    /// Cardinality cap `k` (Section 5.3): stop once the set holds `k`
    /// elements (free-phase additions count too).
    pub max_picks: Option<usize>,
    /// Anytime mode: no round and no free-phase evaluation starts past this
    /// instant, and stopping on it marks the outcome
    /// [`Outcome::truncated`]. A greedy prefix is itself a greedy solution,
    /// and [`Outcome::remaining_bound`] certifies the headroom left behind.
    pub deadline: Option<Instant>,
    /// Benefit floor: a pick's marginal must also exceed this. The default
    /// `0.0` is the paper's rule (a ratio above 1 already implies a
    /// positive marginal). Stopping on the floor marks the outcome
    /// truncated.
    pub benefit_floor: f64,
}

/// A candidate's place in a selection: its score under [`f64::total_cmp`],
/// ties broken toward the smaller element. Every selection in the crate
/// orders by it (the eager argmax, the lazy heap, the Theorem 4 top-k heap,
/// the cleanup pass), so eager and lazy agree on every input: `NaN` ranks
/// above `+∞` and is then rejected by the strict `>` acceptance rules, and
/// `-0.0` orders below `+0.0`. A `partial_cmp` scan would leave the winner
/// dependent on scan order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rank {
    pub(crate) score: f64,
    pub(crate) element: usize,
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.element.cmp(&self.element))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rank {}

/// Runs the greedy over `candidates` (a subset of the ground set of `f`;
/// pass `BitSet::full(n)` for the whole universe).
pub fn select<F: SetFunction>(
    f: &F,
    ranking: Ranking<'_>,
    evaluation: Evaluation,
    candidates: &BitSet,
    config: Config,
) -> Outcome {
    let n = f.universe();
    debug_assert_eq!(candidates.universe(), n);
    let (threshold, ratio) = match ranking {
        Ranking::Benefit => (0.0, None),
        Ranking::Ratio(d) => (1.0, Some(d)),
    };
    let mut run = Run {
        f,
        ratio,
        threshold,
        config,
        out: Outcome {
            set: BitSet::empty(n),
            value: 0.0,
            picks: Vec::new(),
            free_elements: Vec::new(),
            evaluations: 1, // f(∅), just below
            truncated: false,
            remaining_bound: 0.0,
        },
        gain: vec![f64::INFINITY; n],
    };
    let mut value = f.eval(&run.out.set);
    // A ratio needs a positive cost; the rest wait for the free phase.
    let (mut active, free): (Vec<usize>, Vec<usize>) = candidates
        .iter()
        .partition(|&e| ratio.is_none_or(|d| d.cost(e) > 0.0));
    // Lazy runs after their first round: stale ranks, each with the pick
    // count it was computed at.
    let mut heap: BinaryHeap<(Rank, usize)> = BinaryHeap::new();

    while (!active.is_empty() || !heap.is_empty()) && !run.out_of_budget() {
        let best = if heap.is_empty() {
            run.eager_round(&mut active)
        } else {
            run.lazy_round(&mut heap)
        };
        let best = match best {
            Some(b) if b.score > run.threshold && run.gain[b.element] > config.benefit_floor => b,
            Some(b) if b.score > run.threshold => {
                run.out.truncated = true; // improving, but below the floor
                break;
            }
            _ => break, // converged: no candidate improves f
        };
        // The winner's marginal came from this round; no extra oracle call.
        value += run.gain[best.element];
        run.out.set.insert(best.element);
        run.out.picks.push(Pick {
            element: best.element,
            score: best.score,
            value_after: value,
        });
        if evaluation == Evaluation::Lazy {
            let at = run.out.picks.len() - 1;
            heap.extend(active.drain(..).map(|e| (run.rank(e), at)));
        }
    }

    // Free phase. Monotone f_M minus a non-positive c can only raise f
    // under submodularity; real benefit functions may break it, so each
    // element is admitted only if its actual marginal is non-negative.
    for e in free {
        if run.out_of_budget() {
            break;
        }
        let delta = f.marginal(e, &run.out.set);
        run.observe(e, delta);
        if delta >= 0.0 {
            run.out.set.insert(e);
            value += delta;
            run.out.free_elements.push(e);
        }
    }

    // The certificate: stale marginals bound current ones from above under
    // submodularity, a pruned element's last one is ≤ 0, and an element
    // never observed leaves +∞ (vacuous, never wrong).
    let mut out = run.out;
    out.remaining_bound = candidates
        .iter()
        .filter(|&e| !out.set.contains(e))
        .map(|e| run.gain[e].max(0.0))
        .sum();
    out.value = value;
    out
}

/// The state of one greedy run.
struct Run<'a, F> {
    f: &'a F,
    /// The decomposition under the ratio ranking.
    ratio: Option<&'a Decomposition>,
    /// The score a pick must exceed to improve `f`: 0 for a benefit, 1
    /// for a ratio.
    threshold: f64,
    config: Config,
    out: Outcome,
    /// Last observed marginal per element, `+∞` until observed.
    gain: Vec<f64>,
}

impl<F: SetFunction> Run<'_, F> {
    /// The budget rules, checked before every oracle round: the set is
    /// full, or the deadline has passed (which truncates the run).
    fn out_of_budget(&mut self) -> bool {
        if self.out.set.len() >= self.config.max_picks.unwrap_or(usize::MAX) {
            return true;
        }
        // mqo-lint: allow(wall-clock) -- THE sanctioned budget check: every anytime deadline in the workspace routes through here
        let late = self.config.deadline.is_some_and(|d| Instant::now() >= d);
        self.out.truncated |= late;
        late
    }

    /// Records one oracle answer: `e`'s marginal against the current set.
    fn observe(&mut self, e: usize, m: f64) {
        self.out.evaluations += 1;
        self.gain[e] = m;
    }

    /// `e`'s rank under its last observed marginal.
    fn rank(&self, e: usize) -> Rank {
        let m = self.gain[e];
        let score = match self.ratio {
            None => m,
            Some(d) => (m + d.cost(e)) / d.cost(e),
        };
        Rank { score, element: e }
    }

    /// Section 5.1: under the ratio ranking a score at or below the
    /// threshold never wins again.
    fn pruned(&self, rank: Rank) -> bool {
        self.ratio.is_some() && rank.score <= self.threshold
    }

    /// Scores every active candidate in one batch, drops the pruned ones
    /// (keeping the rest in order), and removes and returns the best.
    fn eager_round(&mut self, active: &mut Vec<usize>) -> Option<Rank> {
        let marginals = self.f.marginal_many(active, &self.out.set);
        let mut best: Option<(Rank, usize)> = None;
        let mut kept = 0;
        for (i, &m) in marginals.iter().enumerate() {
            let e = active[i];
            self.observe(e, m);
            let rank = self.rank(e);
            if self.pruned(rank) {
                continue;
            }
            active[kept] = e;
            if best.is_none_or(|(b, _)| rank > b) {
                best = Some((rank, kept));
            }
            kept += 1;
        }
        active.truncate(kept);
        let (rank, pos) = best?;
        active.swap_remove(pos);
        Some(rank)
    }

    /// Pops stale tops and re-evaluates them until a rank computed against
    /// the current set is on top: it dominated every upper bound left in
    /// the heap, so it is the true argmax.
    fn lazy_round(&mut self, heap: &mut BinaryHeap<(Rank, usize)>) -> Option<Rank> {
        let epoch = self.out.picks.len();
        while let Some((top, at)) = heap.pop() {
            if at == epoch {
                return Some(top);
            }
            let e = top.element;
            let m = self.f.marginal(e, &self.out.set);
            self.observe(e, m);
            let rank = self.rank(e);
            if self.pruned(rank) {
                continue;
            }
            if heap.peek().is_none_or(|&(next, _)| rank >= next) {
                return Some(rank);
            }
            heap.push((rank, epoch));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::marginal_greedy::marginal_greedy;
    use crate::function::FnSetFunction;
    use crate::instances::random::{random_coverage_minus_cost, CoverageParams};

    fn greedy<F: SetFunction>(f: &F, candidates: &BitSet, config: Config) -> Outcome {
        select(f, Ranking::Benefit, Evaluation::Eager, candidates, config)
    }

    fn lazy_greedy<F: SetFunction>(f: &F, candidates: &BitSet, config: Config) -> Outcome {
        select(f, Ranking::Benefit, Evaluation::Lazy, candidates, config)
    }

    fn lazy_marginal_greedy<F: SetFunction>(
        f: &F,
        decomp: &Decomposition,
        candidates: &BitSet,
        config: Config,
    ) -> Outcome {
        select(
            f,
            Ranking::Ratio(decomp),
            Evaluation::Lazy,
            candidates,
            config,
        )
    }

    #[test]
    fn greedy_stops_when_no_improvement() {
        // Only element 0 is profitable.
        let f = FnSetFunction::new(3, |s: &BitSet| {
            let mut v = 0.0;
            if s.contains(0) {
                v += 5.0;
            }
            if s.contains(1) {
                v -= 1.0;
            }
            if s.contains(2) {
                v -= 2.0;
            }
            v
        });
        let out = greedy(&f, &BitSet::full(3), Config::default());
        assert_eq!(out.set, BitSet::from_iter(3, [0]));
        assert_eq!(out.value, 5.0);
        assert_eq!(out.picks.len(), 1);
    }

    #[test]
    fn greedy_respects_cardinality() {
        let f = FnSetFunction::new(5, |s: &BitSet| s.len() as f64);
        let out = greedy(
            &f,
            &BitSet::full(5),
            Config {
                max_picks: Some(3),
                ..Config::default()
            },
        );
        assert_eq!(out.set.len(), 3);
    }

    #[test]
    fn lazy_matches_eager_on_submodular_instances() {
        for seed in 0..25 {
            let f = random_coverage_minus_cost(
                CoverageParams {
                    n_sets: 12,
                    n_items: 18,
                    ..Default::default()
                },
                1.0,
                seed,
            );
            let eager = greedy(&f, &BitSet::full(12), Config::default());
            let lazy = lazy_greedy(&f, &BitSet::full(12), Config::default());
            assert_eq!(eager.set, lazy.set, "seed {seed}");
            assert!((eager.value - lazy.value).abs() < 1e-9);
            assert!(lazy.evaluations <= eager.evaluations, "seed {seed}");
        }
    }

    #[test]
    fn greedy_value_never_negative_on_normalized_input() {
        for seed in 0..10 {
            let f = random_coverage_minus_cost(CoverageParams::default(), 2.0, seed);
            let out = greedy(&f, &BitSet::full(8), Config::default());
            assert!(out.value >= 0.0);
        }
    }

    #[test]
    fn nan_values_terminate_eager_and_lazy_identically() {
        // Element 1 poisons its evaluation with NaN. Under the total_cmp
        // ordering NaN ranks top in both the eager scan and the lazy heap,
        // and the acceptance rule (`score > 0.0`) rejects it in both, so both variants stop without picking anything — no panic,
        // no divergence, no element silently shadowed by a leading NaN.
        let f = FnSetFunction::new(3, |s: &BitSet| {
            if s.contains(1) {
                f64::NAN
            } else {
                s.len() as f64 * 0.0 // all real marginals are 0: nothing improves
            }
        });
        let eager = greedy(&f, &BitSet::full(3), Config::default());
        let lazy = lazy_greedy(&f, &BitSet::full(3), Config::default());
        assert_eq!(eager.set, lazy.set);
        assert!(eager.set.is_empty());
    }

    #[test]
    fn negative_zero_values_tie_break_deterministically() {
        // -0.0 and +0.0 benefits must order the same way in the eager scan
        // and the lazy heap (total_cmp: -0.0 < +0.0), so neither variant's
        // outcome depends on scan or heap-pop order.
        let f = FnSetFunction::new(2, |s: &BitSet| {
            if s.contains(0) && !s.contains(1) {
                -0.0
            } else {
                0.0
            }
        });
        let eager = greedy(&f, &BitSet::full(2), Config::default());
        let lazy = lazy_greedy(&f, &BitSet::full(2), Config::default());
        assert_eq!(eager.set, lazy.set);
    }

    #[test]
    fn greedy_on_empty_candidates() {
        let f = FnSetFunction::new(4, |s: &BitSet| s.len() as f64);
        let out = greedy(&f, &BitSet::empty(4), Config::default());
        assert!(out.set.is_empty());
        assert_eq!(out.value, 0.0);
    }

    #[test]
    fn nan_ratio_terminates_eager_and_lazy_identically() {
        // Element 2's marginal is NaN, so its ratio is NaN. total_cmp ranks
        // it above every finite ratio in both variants, and the `> 1.0`
        // acceptance guard then rejects it in both — each run halts at the
        // same point instead of panicking or diverging between eager and
        // lazy (a NaN oracle conservatively stops the greedy loop).
        let f = FnSetFunction::new(3, |s: &BitSet| {
            if s.contains(2) {
                return f64::NAN;
            }
            let mut v = 0.0;
            if s.contains(0) {
                v += 5.0;
            }
            if s.contains(1) {
                v += 3.0;
            }
            v
        });
        let decomp = crate::decompose::Decomposition::from_costs(vec![1.0, 1.0, 1.0]);
        let full = BitSet::full(3);
        let eager = marginal_greedy(&f, &decomp, &full, Config::default());
        let lazy = lazy_marginal_greedy(&f, &decomp, &full, Config::default());
        assert_eq!(eager.set, lazy.set);
        assert!(!eager.set.contains(2));
    }

    #[test]
    fn lazy_respects_cardinality_and_candidates() {
        let f = random_coverage_minus_cost(CoverageParams::default(), 0.5, 3);
        let decomp = Decomposition::canonical(&f);
        let candidates = BitSet::from_iter(8, [0, 2, 4, 6]);
        let cfg = Config {
            max_picks: Some(2),
            ..Default::default()
        };
        let eager = marginal_greedy(&f, &decomp, &candidates, cfg);
        let lazy = lazy_marginal_greedy(&f, &decomp, &candidates, cfg);
        assert_eq!(eager.set, lazy.set);
        assert!(lazy.set.len() <= 2);
        for e in lazy.set.iter() {
            assert!(candidates.contains(e));
        }
    }
}
