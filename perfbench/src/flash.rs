//! `flash-1e5`: the `btflash` preset at 10⁵ leechers, parsed, built and
//! run with `run_rounds_parallel(1, nproc)` from cold until every leecher
//! completes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use strat_bittorrent::{RunObserver, Swarm};
use strat_scenario::{stream_rng, CapacityModel, Scenario};

use crate::report::{self, fnv1a, median, metric, Check, Measured, Traced};
use crate::trace::Spans;
use crate::Opts;

/// The workload's scenario with the checked-in preset's seeds.
const TEMPLATE: &str = include_str!("../workloads/flash-1e5.json");
/// A wave that has not completed after this many rounds fails.
const ROUND_CAP: u64 = 400;
/// Rounds in one fixed-state window, and windows per thread count.
const WINDOW_ROUNDS: u64 = 4;
const WINDOW_REPS: usize = 3;
/// Completion share that ends the peak and starts the tail of a wave.
const TAIL_SHARE: f64 = 0.9;

/// The generated scenario for `seed`, as the JSON the program parses.
/// Seeds follow the `btflash` preset: `seed`, and `seed ^ 0xf1a5` for the
/// capacity shuffle and the swarm.
fn scenario_json(seed: u64) -> String {
    let mut s = Scenario::from_json(TEMPLATE).expect("the flash-1e5 template parses");
    s.seed = seed;
    s.capacity = CapacityModel::SaroiuShuffled {
        shuffle_seed: seed ^ 0xf1a5,
    };
    s.swarm
        .as_mut()
        .expect("the template has a swarm section")
        .swarm_seed = seed ^ 0xf1a5;
    s.to_json()
}

fn parse(json: &str) -> Scenario {
    Scenario::from_json(json).expect("the generated scenario parses")
}

/// Builds the swarm on `btflash`'s stream.
fn build(scenario: &Scenario) -> Swarm {
    scenario
        .build_swarm(&mut stream_rng(scenario.seed, 0xf1))
        .expect("the generated scenario builds")
}

/// Runs single rounds until every leecher completes or [`ROUND_CAP`];
/// returns the completed count after each round.
fn wave(swarm: &mut Swarm, leechers: usize, threads: usize) -> Vec<usize> {
    let mut completed = Vec::new();
    while swarm.completed_count() < leechers && (completed.len() as u64) < ROUND_CAP {
        swarm.run_rounds_parallel(1, threads);
        completed.push(swarm.completed_count());
    }
    completed
}

/// Fingerprint of every leecher's completion round.
fn fingerprint(swarm: &Swarm, leechers: usize) -> u64 {
    fnv1a((0..leechers).flat_map(|p| {
        swarm
            .peer(p)
            .completed_round()
            .unwrap_or(u64::MAX)
            .to_le_bytes()
    }))
}

/// Pieces the leechers lack at build time: the pieces a wave delivers.
fn missing_pieces(swarm: &Swarm, leechers: usize) -> u64 {
    let piece_count = swarm.config().piece_count;
    (0..leechers)
        .map(|p| (piece_count - swarm.peer(p).pieces().count()) as u64)
        .sum()
}

/// One timed set-up: parse and build, and its duration.
fn timed_setup(json: &str) -> (Swarm, f64) {
    let start = Instant::now();
    let swarm = build(&parse(json));
    (swarm, start.elapsed().as_secs_f64())
}

fn timed_wave(template: &Swarm, leechers: usize, threads: usize) -> (Swarm, Vec<usize>, f64) {
    let mut swarm = template.clone();
    let start = Instant::now();
    let completed = wave(&mut swarm, leechers, threads);
    (swarm, completed, start.elapsed().as_secs_f64())
}

pub fn measure(opts: &Opts) -> Measured {
    let json = scenario_json(opts.seed);
    let (template, first) = timed_setup(&json);
    let mut setup_s = vec![first];
    let leechers = parse(&json).peers;
    let missing = missing_pieces(&template, leechers);

    let mut waves = Vec::new();
    let unit_s = report::repeat_units(opts.seconds, || {
        let (swarm, completed, secs) = timed_wave(&template, leechers, opts.nproc);
        waves.push((
            completed.len() as u64,
            swarm.completed_count(),
            fingerprint(&swarm, leechers),
        ));
        drop(swarm);
        setup_s.push(timed_setup(&json).1);
        secs
    });
    let (rounds, _, print) = waves[0];
    let (serial, _, _) = timed_wave(&template, leechers, 1);

    let units = waves.len() as u64;
    let incomplete: u64 = waves.iter().map(|w| (leechers - w.1) as u64).sum();
    let repeats = waves.iter().filter(|w| w.2 == print).count();
    let checks = vec![
        Check::gate(
            "every leecher completes",
            incomplete == 0,
            format!("{incomplete} incomplete downloads over {units} waves, {rounds} rounds"),
        ),
        Check::gate(
            "completion fingerprint repeats across waves",
            repeats == waves.len(),
            format!("{repeats} of {units} waves match {print:#018x}"),
        ),
        Check::gate(
            "completion fingerprint identical at 1 thread and nproc",
            fingerprint(&serial, leechers) == print,
            format!("threads 1 vs {}", opts.nproc),
        ),
    ];
    Measured {
        setup_s,
        unit_s,
        work_per_unit: missing as f64,
        work: "pieces",
        also_per_s: Some((
            "peer_rounds",
            (template.peer_count() as u64 * rounds) as f64,
        )),
        size: format!(
            "leechers={leechers} peers={} rounds={rounds}",
            template.peer_count()
        ),
        threads: opts.nproc,
        attempted: units * leechers as u64,
        failed: incomplete,
        checks,
    }
}

/// Event counts, sharded by peer block so the workers, which own
/// contiguous peer ranges, rarely share a cache line.
struct Counts {
    shards: Vec<Shard>,
}

#[repr(align(64))]
#[derive(Default)]
struct Shard([AtomicU64; 4]);

const UNCHOKES: usize = 0;
const TRANSFERS: usize = 1;
const PIECES: usize = 2;
const COMPLETIONS: usize = 3;

impl Counts {
    fn new() -> Self {
        Self {
            shards: (0..64).map(|_| Shard::default()).collect(),
        }
    }

    fn add(&self, peer: usize, kind: usize) {
        self.shards[(peer >> 12) & 63].0[kind].fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self, kind: usize) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0[kind].load(Ordering::Relaxed))
            .sum()
    }
}

impl RunObserver for Counts {
    fn unchoke(&self, _time: f64, peer: usize, _target: usize, _optimistic: bool) {
        self.add(peer, UNCHOKES);
    }

    fn transfer(&self, _time: f64, _sender: usize, recipient: usize, _kbit: f64, _tft: bool) {
        self.add(recipient, TRANSFERS);
    }

    fn piece_converted(&self, _time: f64, recipient: usize, _piece: usize) {
        self.add(recipient, PIECES);
    }

    fn completed(&self, _time: f64, peer: usize) {
        self.add(peer, COMPLETIONS);
    }
}

/// Median milliseconds per round of a [`WINDOW_ROUNDS`]-round window run
/// on clones of `state`.
fn window_ms(state: &Swarm, threads: usize) -> f64 {
    let times: Vec<f64> = (0..WINDOW_REPS)
        .map(|_| {
            let mut swarm = state.clone();
            let start = Instant::now();
            swarm.run_rounds_parallel(WINDOW_ROUNDS, threads);
            start.elapsed().as_secs_f64() * 1e3 / WINDOW_ROUNDS as f64
        })
        .collect();
    median(&times)
}

pub fn trace(opts: &Opts, spans: &mut Spans) -> Traced {
    let json = scenario_json(opts.seed);
    let scenario = spans.time("scenario.parse", None, || parse(&json));
    let template = spans.time("scenario.build_swarm", None, || build(&scenario));
    let leechers = scenario.peers;
    let total = template.peer_count();
    let degree = scenario.topology.mean_degree(total);
    spans.time("graph.overlay_gen", None, || {
        strat_graph::generators::erdos_renyi_mean_degree(
            total,
            degree,
            &mut stream_rng(opts.seed, 0x0e),
        )
    });
    let missing = missing_pieces(&template, leechers);

    let (plain, completed, wall_n) = timed_wave(&template, leechers, opts.nproc);
    let plain_print = fingerprint(&plain, leechers);
    drop(plain);
    let (_, _, wall_1) = timed_wave(&template, leechers, 1);
    let first_completion = completed
        .iter()
        .position(|&c| c > 0)
        .expect("a leecher completes");
    let tail_from = (TAIL_SHARE * leechers as f64).ceil() as usize;

    // The traced wave: one span per round, and a snapshot of the state the
    // first completing round starts from.
    let counts = Counts::new();
    let mut swarm = template.clone();
    let mut snapshot = None;
    let (mut ramp, mut peak, mut tail) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..completed.len() {
        if round == first_completion {
            snapshot = Some(swarm.clone());
        }
        let before = swarm.completed_count();
        let id = spans.open("swarm.round", None);
        swarm.run_rounds_parallel_with(1, opts.nproc, &counts);
        let ms = spans.close(id) * 1e3;
        match (swarm.completed_count(), before) {
            (0, _) => ramp.push(ms),
            (_, b) if b < tail_from => peak.push(ms),
            _ => tail.push(ms),
        }
    }
    let wall_traced = spans.total_s("swarm.round");
    let snapshot = snapshot.expect("the traced wave reaches the first completion");

    let checks = vec![
        Check::gate(
            "observer pieces_converted equals the leechers' missing pieces",
            counts.total(PIECES) == missing,
            format!(
                "{} converted, {missing} missing at build",
                counts.total(PIECES)
            ),
        ),
        Check::gate(
            "observer completions equal the leechers",
            counts.total(COMPLETIONS) == leechers as u64,
            format!("{} completions", counts.total(COMPLETIONS)),
        ),
        Check::gate(
            "traced wave reproduces the untraced fingerprint",
            fingerprint(&swarm, leechers) == plain_print,
            format!("{} rounds", completed.len()),
        ),
    ];
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Traced {
        metrics: vec![
            metric(
                "scenario.parse_ms",
                spans.total_s("scenario.parse") * 1e3,
                "ms",
            ),
            metric(
                "scenario.build_swarm_s",
                spans.total_s("scenario.build_swarm"),
                "s",
            ),
            metric(
                "graph.overlay_gen_s",
                spans.total_s("graph.overlay_gen"),
                "s",
            ),
            metric("swarm.ramp_ms_per_round", mean(&ramp), "ms"),
            metric("swarm.peak_ms_per_round", mean(&peak), "ms"),
            metric("swarm.tail_ms_per_round", mean(&tail), "ms"),
            metric("swarm.rounds_to_complete", completed.len() as f64, "count"),
            metric("swarm.unchokes", counts.total(UNCHOKES) as f64, "count"),
            metric("swarm.transfers", counts.total(TRANSFERS) as f64, "count"),
            metric(
                "swarm.pieces_converted",
                counts.total(PIECES) as f64,
                "count",
            ),
            metric(
                "swarm.completions",
                counts.total(COMPLETIONS) as f64,
                "count",
            ),
            metric("swarm.window_ms_t1", window_ms(&snapshot, 1), "ms"),
            metric("swarm.window_ms_tn", window_ms(&snapshot, opts.nproc), "ms"),
            metric("par.flash_t1_wave_s", wall_1, "s"),
            metric(
                "par.flash_scaling",
                wall_1 / wall_n / opts.nproc as f64,
                "ratio",
            ),
        ],
        size: format!(
            "leechers={leechers} peers={total} rounds={}",
            completed.len()
        ),
        threads: opts.nproc,
        checks,
        attempted: 3 * leechers as u64,
        overhead_s: wall_traced - wall_n,
    }
}
