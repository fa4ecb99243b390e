//! MarginalGreedy's `Outcome`, pinned bitwise: the set, each pick's
//! element, score and running value, the free elements, the evaluations,
//! the headroom bound and the `bc` calls of the run. Each workload runs
//! unconstrained, capped at two picks and under an unreachable floor, and
//! all three fold into one FNV-1a digest beside the unconstrained run's
//! `(picks, evaluations, bc_calls)`. The selection loop may change shape
//! only as long as these stay put.

use mqo_core::benefit::MbFunction;
use mqo_core::session::Session;
use mqo_core::MqoConfig;
use mqo_submod::algorithms::marginal_greedy::{marginal_greedy, Config};
use mqo_submod::bitset::BitSet;
use mqo_submod::function::SetFunction;
use mqo_tpcd::{Shape, WorkloadSpec};
use mqo_volcano::cost::DiskCostModel;

/// `chain-40` is a generated 40-query chain batch with 16 picks.
const PINNED: [(&str, u64, usize, u64, u64); 11] = [
    ("BQ1", 0xbd1c92e0914da6aa, 0, 7, 8),
    ("BQ2", 0xf38e46828d2d007a, 1, 39, 41),
    ("BQ3", 0x6699977f2ac595e1, 2, 66, 71),
    ("BQ4", 0xd683222fae265ee1, 2, 121, 134),
    ("BQ5", 0x107a404d09cdd451, 2, 149, 168),
    ("BQ6", 0x4fa29db388e67223, 4, 175, 196),
    ("Q2", 0x54a06807e7555ac1, 0, 19, 23),
    ("Q2-D", 0x97062144c66be3c0, 0, 19, 23),
    ("Q11", 0xe17846333c5e1f03, 1, 4, 6),
    ("Q15", 0xaf89a3a47f22cb36, 0, 3, 5),
    ("chain-40", 0x5d092839ae49f3cc, 16, 522, 542),
];

#[test]
fn marginal_greedy_outcome_is_pinned_bitwise() {
    let configs = [
        Config::default(),
        Config {
            max_picks: Some(2),
            ..Config::default()
        },
        Config {
            benefit_floor: f64::MAX,
            ..Config::default()
        },
    ];
    for threads in [1usize, 4] {
        let mut got = Vec::new();
        for (name, ..) in PINNED {
            let w = match name.strip_prefix("BQ") {
                Some(i) => mqo_tpcd::batched(i.parse().unwrap(), 1.0),
                None if name == "chain-40" => mqo_tpcd::generate(&WorkloadSpec {
                    tables: 24,
                    queries: 40,
                    span: (3, 6),
                    overlap: 0.4,
                    ..WorkloadSpec::smoke(Shape::Chain, 7)
                }),
                None => mqo_tpcd::standalone(name, 1.0),
            };
            let state = Session::builder()
                .context(w.ctx)
                .queries(w.queries)
                .cost_model(DiskCostModel::paper())
                .build()
                .snapshot();
            let mut words = Vec::new();
            let mut counters = Vec::new();
            for config in configs {
                let mb = MbFunction::new(state.engine(MqoConfig::with_threads(threads)));
                let decomp = mb.canonical_decomposition();
                let before = mb.bc_calls();
                let out = marginal_greedy(&mb, &decomp, &BitSet::full(mb.universe()), config);
                let calls = mb.bc_calls() - before;
                counters.push((out.picks.len(), out.evaluations, calls));
                words.push(out.set.len() as u64);
                words.extend(out.set.iter().map(|e| e as u64));
                words.extend([out.value.to_bits(), out.picks.len() as u64]);
                for p in &out.picks {
                    words.extend([p.element as u64, p.score.to_bits(), p.value_after.to_bits()]);
                }
                words.push(out.free_elements.len() as u64);
                words.extend(out.free_elements.iter().map(|&e| e as u64));
                words.extend([out.evaluations, u64::from(out.truncated)]);
                words.extend([out.remaining_bound.to_bits(), calls]);
            }
            let digest = words
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            let (picks, evaluations, calls) = counters[0];
            println!("    (\"{name}\", {digest:#018x}, {picks}, {evaluations}, {calls}),");
            got.push((name, digest, picks, evaluations, calls));
        }
        assert_eq!(
            got, PINNED,
            "threads {threads}: MarginalGreedy outcome drifted \
             (workload, digest, picks, evaluations, bc_calls)"
        );
    }
}
