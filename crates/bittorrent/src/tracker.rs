//! The tracker: the dense list of present peers, and the one rule
//! ([`Tracker::hand_out`]) by which every wiring request of the session
//! and event engines draws a uniform subset of them.

use rand::Rng;

use crate::swarm::PeerId;

/// Position-index sentinel for a slot that is not present.
const ABSENT: u32 = u32::MAX;

/// Present arena slots with a position index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tracker {
    /// Present arena slots; departures swap-remove.
    present: Vec<u32>,
    /// `pos[slot]` locates `slot` in `present` ([`ABSENT`] when not
    /// present).
    pos: Vec<u32>,
}

impl Tracker {
    /// A tracker whose present list is `slots`, in the given order.
    pub(crate) fn new(slots: impl IntoIterator<Item = PeerId>) -> Self {
        let mut tracker = Self::default();
        for slot in slots {
            tracker.insert(slot);
        }
        tracker
    }

    /// Number of present slots.
    pub(crate) fn len(&self) -> usize {
        self.present.len()
    }

    /// Appends a newly present `slot`.
    pub(crate) fn insert(&mut self, slot: PeerId) {
        if slot >= self.pos.len() {
            self.pos.resize(slot + 1, ABSENT);
        }
        debug_assert_eq!(self.pos[slot], ABSENT, "slot {slot} already present");
        self.pos[slot] = self.present.len() as u32;
        self.present.push(slot as u32);
    }

    /// Swap-removes a departing `slot`: the last present slot takes its
    /// position.
    pub(crate) fn remove(&mut self, slot: PeerId) {
        let at = self.pos[slot] as usize;
        debug_assert_eq!(self.present[at] as usize, slot, "slot {slot} not present");
        self.present.swap_remove(at);
        if let Some(&moved) = self.present.get(at) {
            self.pos[moved as usize] = at as u32;
        }
        self.pos[slot] = ABSENT;
    }

    /// Renames every present slot along an arena compaction's old → new
    /// slot map (`u32::MAX` marks a dropped slot, which must not be
    /// present). The list keeps its order; only the slot values move.
    pub(crate) fn remap(&mut self, remap: &[u32]) {
        let present = std::mem::take(&mut self.present);
        self.pos.clear();
        for slot in present {
            debug_assert_ne!(remap[slot as usize], ABSENT, "present slot {slot} dropped");
            self.insert(remap[slot as usize] as PeerId);
        }
    }

    /// The one candidate hand-out rule, a partial Fisher–Yates done in
    /// place: for `i` in `0..min(cap, len)` (`cap = None` is the whole
    /// list), stop once `satisfied(ctx)`; otherwise draw
    /// `j = rng.gen_range(i..len)`, swap positions `i` and `j`, and
    /// `offer(ctx, present[i])`. The offers are distinct uniform present
    /// slots; the requester decides what each is worth (itself, a full
    /// row, a refused partition half). Afterwards every displaced slot
    /// goes back to its indexed position, which undoes the swaps, so
    /// later requests draw over the same order.
    pub(crate) fn hand_out<C, R: Rng + ?Sized>(
        &mut self,
        cap: Option<usize>,
        rng: &mut R,
        ctx: &mut C,
        satisfied: impl Fn(&C) -> bool,
        mut offer: impl FnMut(&mut C, PeerId),
    ) {
        let len = self.present.len();
        let handed = cap.map_or(len, |c| c.min(len));
        let mut swapped = 0;
        while swapped < handed && !satisfied(ctx) {
            let j = rng.gen_range(swapped..len);
            self.present.swap(swapped, j);
            offer(ctx, self.present[swapped] as PeerId);
            swapped += 1;
        }
        // Every swap touched a position below `swapped`, so cycling each
        // of those positions home restores the whole list.
        for i in 0..swapped {
            let mut home = self.pos[self.present[i] as usize] as usize;
            while home != i {
                self.present.swap(i, home);
                home = self.pos[self.present[i] as usize] as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Runs one hand-out whose requester stops after `want` offers and
    /// returns the offers.
    fn offers(
        tracker: &mut Tracker,
        cap: Option<usize>,
        want: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<PeerId> {
        let mut got = Vec::new();
        tracker.hand_out(cap, rng, &mut got, |g| g.len() >= want, |g, q| g.push(q));
        got
    }

    /// Checks the list holds `present` in order and the index agrees.
    fn assert_consistent(tracker: &Tracker, present: &[u32]) {
        assert_eq!(tracker.present, present);
        for (slot, &at) in tracker.pos.iter().enumerate() {
            if at == ABSENT {
                assert!(!present.contains(&(slot as u32)), "slot {slot}");
            } else {
                assert_eq!(tracker.present[at as usize] as usize, slot);
            }
        }
    }

    /// A sparse present list in descending slot order, as after
    /// departures: slots `3·len − 2, 3·len − 5, …, 1`.
    fn sparse(len: usize) -> Tracker {
        Tracker::new((0..len).rev().map(|i| 3 * i + 1))
    }

    #[test]
    fn hand_out_offers_distinct_present_slots_within_the_cap_and_restores_order() {
        // (len, cap, want): the requester stops after `want` offers.
        let cases: &[(usize, Option<usize>, usize)] = &[
            (0, None, 5),
            (1, None, 5),
            (1, Some(3), 5),
            (12, None, 4),
            (12, None, usize::MAX),
            (12, Some(3), usize::MAX),
            (12, Some(3), 2),
            (12, Some(40), usize::MAX),
            (200, Some(25), 20),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for &(len, cap, want) in cases {
            let mut tracker = sparse(len);
            let before = tracker.present.clone();
            for _ in 0..50 {
                let got = offers(&mut tracker, cap, want, &mut rng);
                let limit = cap.unwrap_or(usize::MAX).min(len).min(want);
                assert_eq!(got.len(), limit, "len {len} cap {cap:?} want {want}");
                let mut distinct = got.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), got.len(), "repeated offer");
                assert!(got.iter().all(|&q| before.contains(&(q as u32))));
                assert_consistent(&tracker, &before);
            }
        }
    }

    #[test]
    fn uncapped_hand_out_to_a_greedy_requester_offers_every_slot_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for len in [1, 2, 5, 64, 301] {
            let mut tracker = sparse(len);
            let mut got = offers(&mut tracker, None, usize::MAX, &mut rng);
            got.sort_unstable();
            let mut want: Vec<PeerId> = tracker.present.iter().map(|&s| s as PeerId).collect();
            want.sort_unstable();
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn insert_remove_and_remap_keep_the_index_consistent() {
        let mut tracker = Tracker::new(0..6);
        assert_consistent(&tracker, &[0, 1, 2, 3, 4, 5]);
        // (op, slot, present list afterwards)
        let steps: &[(&str, usize, &[u32])] = &[
            ("remove", 1, &[0, 5, 2, 3, 4]),
            ("remove", 4, &[0, 5, 2, 3]),
            ("insert", 9, &[0, 5, 2, 3, 9]),
            ("remove", 0, &[9, 5, 2, 3]),
            ("insert", 1, &[9, 5, 2, 3, 1]),
            ("remove", 1, &[9, 5, 2, 3]),
        ];
        for &(op, slot, after) in steps {
            match op {
                "insert" => tracker.insert(slot),
                _ => tracker.remove(slot),
            }
            assert_consistent(&tracker, after);
        }
        // Compaction drops slots 0, 1, 4, 6, 7, 8 and renumbers the rest
        // densely; the list keeps its order.
        let x = u32::MAX;
        let remap = [x, x, 0, 1, x, 2, x, x, x, 3];
        tracker.remap(&remap);
        assert_consistent(&tracker, &[3, 2, 0, 1]);
        assert_eq!(tracker.pos.len(), 4);
        tracker.insert(4);
        assert_consistent(&tracker, &[3, 2, 0, 1, 4]);
    }

    #[test]
    fn capped_hand_out_matches_a_partial_fisher_yates_over_a_copy() {
        // (len, cap, want)
        let cases: &[(usize, usize, usize)] =
            &[(1, 3, 9), (10, 3, 9), (10, 3, 2), (50, 8, 5), (50, 50, 50)];
        for &(len, cap, want) in cases {
            let mut tracker = sparse(len);
            for seed in 0..20 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let got = offers(&mut tracker, Some(cap), want, &mut rng);
                let mut twin = ChaCha8Rng::seed_from_u64(seed);
                let mut cands = tracker.present.clone();
                let mut expected = Vec::new();
                for i in 0..cap.min(cands.len()) {
                    if expected.len() >= want {
                        break;
                    }
                    let j = twin.gen_range(i..cands.len());
                    cands.swap(i, j);
                    expected.push(cands[i] as PeerId);
                }
                assert_eq!(got, expected, "len {len} cap {cap} want {want} seed {seed}");
                assert_eq!(rng.next_u64(), twin.next_u64(), "draw count differs");
            }
        }
    }

    #[test]
    fn offer_frequencies_stay_inside_a_binomial_bound() {
        // Each hand-out offers a uniform `k`-subset, k = min(cap, want,
        // len), so over H hand-outs a slot's offer count is
        // Binomial(H, k / len): mean H·k/len, σ = sqrt(H·p·(1 − p)). The
        // bound is 5σ per slot (two-sided 5.7e-7 each, so < 1e-4 for the
        // whole table even with no fixed seed).
        const H: usize = 20_000;
        // (len, cap, want)
        let cases: &[(usize, Option<usize>, usize)] = &[
            (10, Some(3), usize::MAX),
            (10, None, 1),
            (40, Some(12), 5),
            (7, None, 6),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(2007);
        for &(len, cap, want) in cases {
            let mut tracker = sparse(len);
            let k = cap.unwrap_or(len).min(want).min(len);
            let p = k as f64 / len as f64;
            let mean = H as f64 * p;
            let sigma = (H as f64 * p * (1.0 - p)).sqrt();
            let mut hits = vec![0usize; tracker.pos.len()];
            for _ in 0..H {
                for q in offers(&mut tracker, cap, want, &mut rng) {
                    hits[q] += 1;
                }
            }
            for &slot in &tracker.present {
                let dev = (hits[slot as usize] as f64 - mean).abs();
                assert!(
                    dev <= 5.0 * sigma,
                    "len {len} cap {cap:?} want {want}: slot {slot} offered {} times, \
                     mean {mean:.0}, sigma {sigma:.1}",
                    hits[slot as usize]
                );
            }
        }
    }
}
