//! Property tests for the continuous-time event core.
//!
//! * **Synchronous limit** — with homogeneous timing
//!   ([`EventTiming::synchronous_limit`]) the event engine must reproduce
//!   the indexed-stream round engine exactly: per-peer transfer totals
//!   and piece holdings bit-for-bit, and a completion record stream whose
//!   order and per-round counts match the round engine's
//!   `completed_round` stamps, for arbitrary swarm geometry.
//! * **Tie-heavy determinism** — when the rechoke interval, transfer
//!   quantum and announce interval are commensurate (so large batches of
//!   events share exact timestamps) the queue's total order
//!   `(time, kind, a, b, seq)` must still yield one reproducible
//!   history: two identically-seeded engines agree event for event.

#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use strat_bittorrent::session::{ArrivalProcess, DepartureRules, SessionConfig};
use strat_bittorrent::{EventEngine, EventTiming, Swarm, SwarmConfig};

fn build(leechers: usize, seeds: usize, pieces: usize, completion: f64, seed: u64) -> Swarm {
    let config = SwarmConfig::builder()
        .leechers(leechers)
        .seeds(seeds)
        .piece_count(pieces)
        .piece_size_kbit(160.0)
        .initial_completion(completion)
        .mean_neighbors(8.0)
        .seed(seed)
        .build();
    let uploads: Vec<f64> = (0..leechers + seeds)
        .map(|i| 90.0 + 41.0 * i as f64)
        .collect();
    Swarm::new(config, &uploads)
}

/// One peer's exact observable state: transfer-total bit patterns,
/// completion stamp, and held piece indices.
type PeerBits = (u64, u64, u64, u64, Option<u64>, Vec<usize>);

/// Exact observable state of a (possibly churned) swarm plus engine
/// accounting, for bitwise run-to-run comparison.
fn engine_fingerprint(engine: &EventEngine) -> Vec<PeerBits> {
    let swarm = engine.swarm();
    (0..swarm.peer_count())
        .map(|p| {
            let peer = swarm.peer(p);
            (
                peer.total_uploaded().to_bits(),
                peer.total_downloaded().to_bits(),
                peer.tft_uploaded().to_bits(),
                peer.tft_downloaded().to_bits(),
                peer.completed_round(),
                (0..swarm.config().piece_count)
                    .filter(|&i| peer.pieces().contains(i))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Homogeneous timing reproduces the indexed round engine exactly,
    /// and the completion record stream is consistent with it: ordered
    /// by round, one record per peer that completes during the run,
    /// stamped with the same round the oracle stamps.
    #[test]
    fn sync_limit_matches_round_indexed(
        leechers in 6usize..36,
        seeds in 1usize..3,
        pieces in 8usize..48,
        completion in 0.0f64..0.8,
        seed in any::<u64>(),
        rounds in 2u64..16,
    ) {
        let init_complete: Vec<bool> = {
            let fresh = build(leechers, seeds, pieces, completion, seed);
            (0..fresh.peer_count())
                .map(|p| fresh.peer(p).pieces().count() == pieces)
                .collect()
        };
        let mut oracle = build(leechers, seeds, pieces, completion, seed);
        let rs = oracle.config().round_seconds;
        let mut engine = EventEngine::new(
            build(leechers, seeds, pieces, completion, seed),
            EventTiming::synchronous_limit(rs),
            None,
        );
        oracle.run_rounds_parallel(rounds, 3);
        engine.run_sync_rounds(rounds);

        let ev = engine.swarm();
        for p in 0..oracle.peer_count() {
            let (a, b) = (oracle.peer(p), ev.peer(p));
            prop_assert_eq!(
                a.completed_round(), b.completed_round(),
                "completion stamp diverged at peer {}", p
            );
            prop_assert_eq!(
                a.total_downloaded().to_bits(), b.total_downloaded().to_bits(),
                "download total diverged at peer {}", p
            );
            prop_assert_eq!(
                a.total_uploaded().to_bits(), b.total_uploaded().to_bits(),
                "upload total diverged at peer {}", p
            );
            for i in 0..pieces {
                prop_assert_eq!(a.pieces().contains(i), b.pieces().contains(i));
            }
        }
        prop_assert_eq!(oracle.availability(), ev.availability());

        // Completion records: one per peer that completed during the
        // run, in non-decreasing round/time order, each stamped with
        // the oracle's round.
        let mut recorded: Vec<u32> = Vec::new();
        let mut prev = (0.0f64, 0u64);
        for rec in engine.completions() {
            prop_assert!(
                (rec.completion_time, rec.completion_round) >= prev,
                "records out of order: {:?} after {:?}",
                (rec.completion_time, rec.completion_round), prev
            );
            prev = (rec.completion_time, rec.completion_round);
            prop_assert_eq!(rec.arrival_time, 0.0, "closed swarm: everyone arrives at t=0");
            prop_assert_eq!(
                oracle.peer(rec.slot as usize).completed_round(),
                Some(rec.completion_round),
                "record round disagrees with oracle stamp for slot {}", rec.slot
            );
            recorded.push(rec.slot);
        }
        let mut expected: Vec<u32> = (0..oracle.peer_count())
            .filter(|&p| !init_complete[p] && oracle.peer(p).completed_round().is_some())
            .map(|p| p as u32)
            .collect();
        recorded.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(recorded, expected, "record slots != oracle completions");
    }

    /// Commensurate intervals put rechokes, transfer quanta, announces
    /// and churn on shared exact timestamps; the queue's deterministic
    /// tie-break must make the whole history reproducible anyway.
    #[test]
    fn tie_heavy_timestamps_are_deterministic(
        leechers in 8usize..28,
        seeds in 1usize..3,
        pieces in 12usize..40,
        completion in 0.1f64..0.6,
        seed in any::<u64>(),
        quantum_idx in 0usize..4,
        announce_mult in 1u32..4,
        mult_idx in 0usize..4,
        rate in 0.3f64..1.5,
    ) {
        // Divisors of the rechoke interval whose quotients are exact in
        // binary, so quantum multiples land exactly on rechoke ticks.
        let quantum_div = [1u32, 2, 4, 5][quantum_idx];
        let multipliers: Vec<f64> = match mult_idx {
            0 => vec![1.0],
            1 => vec![1.0, 1.0],
            2 => vec![0.5, 1.0, 2.0],
            _ => vec![1.0, 2.0],
        };
        let timing = EventTiming {
            rechoke_interval: 10.0,
            transfer_quantum: Some(10.0 / f64::from(quantum_div)),
            announce_interval: Some(10.0 * f64::from(announce_mult)),
            speed_multipliers: multipliers,
        };
        let churn = SessionConfig {
            arrival: ArrivalProcess::Poisson { rate },
            departure: DepartureRules {
                leave_on_completion: 0.3,
                seed_leave_prob: 0.1,
                seed_exodus_round: None,
                abort_prob: 0.02,
            },
            arrival_upload_kbps: 256.0,
            arrival_completion: 0.25,
            target_degree: 7,
            session_seed: seed ^ 0xaa,
            peer_list_cap: None,
            compact_threshold: None,
        };
        let run = || {
            let mut engine = EventEngine::new(
                build(leechers, seeds, pieces, completion, seed),
                timing.clone(),
                Some(churn.clone()),
            );
            // Chunk boundaries on rechoke ticks: the horizon itself is
            // tie-heavy, exercising the boundary flush three times.
            for _ in 0..3 {
                engine.run_for(110.0);
            }
            engine.swarm().check_invariants();
            (
                *engine.stats(),
                engine.completions().to_vec(),
                engine.present_count(),
                engine.clock_seconds().to_bits(),
                engine_fingerprint(&engine),
            )
        };
        let (s1, c1, n1, t1, f1) = run();
        let (s2, c2, n2, t2, f2) = run();
        prop_assert_eq!(s1, s2, "event counters diverged");
        prop_assert_eq!(n1, n2, "present population diverged");
        prop_assert_eq!(t1, t2, "clock diverged");
        prop_assert_eq!(c1.len(), c2.len(), "completion counts diverged");
        for (a, b) in c1.iter().zip(&c2) {
            prop_assert_eq!(a, b, "completion records diverged");
        }
        prop_assert_eq!(f1, f2, "swarm state diverged");
        // Ties genuinely occur: with quantum = interval / k there are at
        // least as many transfer dispatches as rechokes.
        prop_assert!(s1.transfers + s1.rechokes > 0, "degenerate run");
    }
}
