//! `fig9-mc`: the paper's Figure 9 instance. Algorithm 3 once, then the
//! Monte-Carlo estimate of peer 3000's first and second choice.
//!
//! It calls `monte_carlo` directly rather than the `fig9` experiment,
//! which fixes its own thread count.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use strat_analytic::b_matching::{self, BMatchingDistribution};
use strat_analytic::monte_carlo::{self, ChoiceHistogram, MonteCarloConfig};
use strat_core::{stable_configuration, Capacities, GlobalRanking, RankedAcceptance};
use strat_graph::{generators, NodeId};

use crate::report::{self, metric, Check, Measured, Traced};
use crate::trace::Spans;
use crate::Opts;

const N: usize = 5000;
const P: f64 = 0.01;
const B0: u32 = 2;
/// The paper's peer 3000, 0-based.
const PEER: usize = 2999;
/// Realizations in one timed unit.
const REALIZATIONS: u64 = 600;
/// Realizations of the 1-thread vs `nproc` identity check.
const CHECK_REALIZATIONS: u64 = 100;

fn config(opts: &Opts, realizations: u64, threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        n: N,
        p: P,
        b0: B0,
        realizations,
        // The `fig9` experiment's stream for the same seed.
        seed: opts.seed ^ 0x9,
        threads,
    }
}

fn size() -> String {
    format!(
        "n={N} p={P} b0={B0} peer={} realizations={REALIZATIONS}",
        PEER + 1
    )
}

fn algorithm3() -> BMatchingDistribution {
    b_matching::solve(N, P, B0, &[PEER])
}

/// One timed set-up: Algorithm 3 and its duration.
fn timed_setup() -> (BMatchingDistribution, f64) {
    let start = Instant::now();
    let analytic = algorithm3();
    (analytic, start.elapsed().as_secs_f64())
}

/// `fig9`'s own agreement gate: three times the multinomial noise floor
/// of an L1 distance over ~8/p support points, clamped to [0.10, 1.2].
fn l1_gate(realizations: u64) -> f64 {
    let noise = (8.0 / P / realizations as f64).sqrt();
    (3.0 * noise).clamp(0.10, 1.2)
}

fn agreement_checks(hist: &ChoiceHistogram, analytic: &BMatchingDistribution) -> Vec<Check> {
    let gate = l1_gate(hist.realizations);
    (1..=B0)
        .map(|c| {
            let row = analytic
                .choice_row(PEER, c)
                .expect("Algorithm 3 solved the observed peer");
            let l1 = monte_carlo::l1_distance(&hist.row(c), row);
            Check::gate(
                format!("choice {c} L1 vs Algorithm 3"),
                l1 < gate,
                format!(
                    "L1 = {l1:.4}, gate {gate:.3}, {} realizations",
                    hist.realizations
                ),
            )
        })
        .collect()
}

pub fn measure(opts: &Opts) -> Measured {
    let (analytic, first) = timed_setup();
    let mut setup_s = vec![first];

    let cfg = config(opts, REALIZATIONS, opts.nproc);
    let mut histograms = Vec::new();
    let unit_s = report::repeat_units(opts.seconds, || {
        let start = Instant::now();
        let hist = monte_carlo::estimate_choice_distribution(&cfg, PEER);
        let secs = start.elapsed().as_secs_f64();
        histograms.push(hist);
        setup_s.push(timed_setup().1);
        secs
    });

    let first = &histograms[0];
    let mut checks = agreement_checks(first, &analytic);
    let repeats = histograms.iter().filter(|h| *h == first).count();
    checks.push(Check::gate(
        "histogram repeats across units",
        repeats == histograms.len(),
        format!("{repeats} of {} units identical", histograms.len()),
    ));
    let serial =
        monte_carlo::estimate_choice_distribution(&config(opts, CHECK_REALIZATIONS, 1), PEER);
    let parallel = monte_carlo::estimate_choice_distribution(
        &config(opts, CHECK_REALIZATIONS, opts.nproc),
        PEER,
    );
    checks.push(Check::gate(
        "histogram identical at 1 thread and nproc",
        serial == parallel,
        format!(
            "{CHECK_REALIZATIONS} realizations, threads 1 vs {}",
            opts.nproc
        ),
    ));

    let units = unit_s.len() as u64;
    let failed = histograms.iter().filter(|h| *h != first).count() as u64 * REALIZATIONS;
    Measured {
        setup_s,
        unit_s,
        work_per_unit: REALIZATIONS as f64,
        work: "mc_realizations",
        also_per_s: None,
        size: size(),
        threads: opts.nproc,
        attempted: units * REALIZATIONS,
        failed,
        checks,
    }
}

/// The Monte-Carlo loop of `monte_carlo::estimate_choice_distribution`,
/// with a span around each call into `strat-graph` and `strat-core`.
fn traced_estimate(
    cfg: &MonteCarloConfig,
    spans: &mut Spans,
    origin: Instant,
) -> (ChoiceHistogram, u64) {
    let b = cfg.b0 as usize;
    let ranking = GlobalRanking::identity(cfg.n);
    let caps = Capacities::constant(cfg.n, cfg.b0);
    let blocks = strat_par::chunk_ranges(cfg.realizations, cfg.threads);
    let parts = strat_par::par_map(&blocks, cfg.threads, |_, block| {
        let mut own = Spans::new(origin);
        let mut counts = vec![vec![0u64; cfg.n]; b];
        let mut missing = vec![0u64; b];
        let mut edges = 0u64;
        for r in block.clone() {
            let id = own.open("mc.realization", None);
            let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
            rng.set_stream(r + 1);
            let g = own.time("graph.er_gen", Some(id), || {
                generators::erdos_renyi(cfg.n, cfg.p, &mut rng)
            });
            edges += g.edge_count() as u64;
            let acc = own.time("core.acceptance_build", Some(id), || {
                RankedAcceptance::new(g, ranking.clone()).expect("sizes match")
            });
            let m = own.time("core.alg1", Some(id), || {
                stable_configuration(&acc, &caps).expect("sizes match")
            });
            let mates = m.mates(NodeId::new(PEER));
            for c in 0..b {
                match mates.get(c) {
                    Some(mate) => counts[c][mate.index()] += 1,
                    None => missing[c] += 1,
                }
            }
            own.close(id);
        }
        (own, counts, missing, edges)
    });
    let mut hist = ChoiceHistogram {
        peer: PEER,
        counts: vec![vec![0u64; cfg.n]; b],
        missing: vec![0u64; b],
        realizations: cfg.realizations,
    };
    let mut edges = 0;
    for (own, counts, missing, e) in parts {
        spans.merge(own);
        for c in 0..b {
            for (total, k) in hist.counts[c].iter_mut().zip(&counts[c]) {
                *total += k;
            }
            hist.missing[c] += missing[c];
        }
        edges += e;
    }
    (hist, edges)
}

pub fn trace(opts: &Opts, spans: &mut Spans, origin: Instant) -> Traced {
    let analytic = spans.time("analytic.alg3", None, algorithm3);
    let r = REALIZATIONS as f64;

    let timed = |threads| {
        let start = Instant::now();
        let hist =
            monte_carlo::estimate_choice_distribution(&config(opts, REALIZATIONS, threads), PEER);
        (hist, start.elapsed().as_secs_f64())
    };
    let (plain, wall_n) = timed(opts.nproc);
    let (_, wall_1) = timed(1);

    let start = Instant::now();
    let (traced, edges) = traced_estimate(&config(opts, REALIZATIONS, opts.nproc), spans, origin);
    let wall_traced = start.elapsed().as_secs_f64();

    let per_realization_ms = |name| spans.total_s(name) * 1e3 / r;
    let gen_ms = per_realization_ms("graph.er_gen");
    let acc_ms = per_realization_ms("core.acceptance_build");
    let alg1_ms = per_realization_ms("core.alg1");
    let realization_ms = opts.nproc as f64 * wall_traced * 1e3 / r;

    let mut checks = agreement_checks(&plain, &analytic);
    checks.push(Check::gate(
        "traced loop reproduces the program's histogram",
        traced == plain,
        format!("{REALIZATIONS} realizations at {} threads", opts.nproc),
    ));
    Traced {
        metrics: vec![
            metric("analytic.alg3_s", spans.total_s("analytic.alg3"), "s"),
            metric("graph.er_gen_ms", gen_ms, "ms"),
            metric("graph.er_edges", edges as f64 / r, "count"),
            metric("core.acceptance_build_ms", acc_ms, "ms"),
            metric("core.alg1_ms", alg1_ms, "ms"),
            metric("mc.realization_ms", realization_ms, "ms"),
            metric(
                "mc.traced_share",
                (gen_ms + acc_ms + alg1_ms) / realization_ms,
                "ratio",
            ),
            metric("par.mc_t1_realizations_per_s", r / wall_1, "1/s"),
            metric(
                "par.mc_scaling",
                wall_1 / wall_n / opts.nproc as f64,
                "ratio",
            ),
        ],
        size: size(),
        threads: opts.nproc,
        checks,
        attempted: 3 * REALIZATIONS,
        overhead_s: wall_traced - wall_n,
    }
}
