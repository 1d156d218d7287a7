//! The round-tag wheel `bd-clock` runs on — the bounded-delay counterpart
//! of the lockstep [`crate::Pipeline`]'s beat-indexed slots.
//!
//! The lockstep pipeline hard-wires the paper's global-beat assumption:
//! round `r`'s send and receive happen inside one beat, so the *driver's
//! beat index* is the round index. Under
//! [`byzclock_sim::TimingModel::BoundedDelay`] that identification breaks
//! — a round-`r` message may arrive while the receiver is still waiting
//! on round `r - 1`, or after it has moved past `r`. The [`Wheel`]
//! decouples progress from the beat index:
//!
//! - every message carries its round tag on the wire ([`RoundMsg`], a
//!   bounded `u8` — no unbounded counters, per the paper's
//!   self-stabilization discipline);
//! - arrivals park in a per-tag slot, deduplicated per `(sender, tag)` so
//!   a Byzantine node cannot stuff a slot no matter what tags it claims;
//! - the owner ticks when the current slot holds an `n - f` quorum, and
//!   applies its own rules once the round has waited `window` beats.
//!
//! The round index *is* the clock value and the payload is `()`, so a
//! slot is a sender set and nothing more. Tags wrap modulo `k`: an early
//! message for the next cycle parks in the slot that cycle will consume —
//! the recyclable session numbers of the paper's Fig. 1, transplanted to
//! the semi-synchronous model.

use byzclock_sim::{NodeId, SimRng, Wire, WireFormat, WireReader, WireWriter};
use rand::Rng;

/// A round-tagged message: the round index it belongs to plus a payload.
/// The tag is bounded (`u8`), so the tagging is itself self-stabilizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundMsg<M> {
    /// Which round this message belongs to. Byzantine senders may claim
    /// anything; out-of-range tags are dropped, in-range lies land in
    /// some wheel slot and are bounded by the per-`(sender, round)` dedup.
    pub round: u8,
    /// The payload.
    pub msg: M,
}

impl<M: Wire> Wire for RoundMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_tagged(self.round, &self.msg, format);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        Some(RoundMsg {
            round: r.u8()?,
            msg: M::decode(format, r)?,
        })
    }
}

/// `bd-clock`'s `k`-slot wheel: the current round, its timer and send
/// latches, and the senders parked per tag. The counters are measurement
/// state, not protocol state: transient faults do not scramble them (a
/// corrupted node still *reports* honestly — the harness, not the node,
/// owns these numbers).
#[derive(Debug)]
pub(crate) struct Wheel {
    k: usize,
    quorum: usize,
    window: u64,
    /// The round currently being executed — the clock value.
    pub(crate) round: usize,
    /// Beats the current round has been waiting since it was entered.
    pub(crate) beats_waiting: u64,
    /// A fresh announcement is due (the round was just entered).
    pub(crate) pending_send: bool,
    /// Re-announce next send phase: set while the round is stalled past
    /// the window, so peers that discarded their buffers (a jump, a
    /// transient fault) can rebuild support — without this, a
    /// once-per-round send discipline deadlocks against any
    /// receiver-side buffer loss.
    pub(crate) resend: bool,
    /// The node has announced since its last transient fault. With a
    /// `()` payload a re-announcement puts exactly the tags of a fresh
    /// one on the wire, so this latch changes no traffic; it is kept
    /// because the model checker's state (`BdSnapshot::last_send_cached`)
    /// carries it.
    pub(crate) cached: bool,
    /// `seen[tag][sender]`: the `(sender, tag)` dedup, one indexed probe
    /// per message. Grown on demand, since a Byzantine sender id is
    /// bounded only by `u16`.
    pub(crate) seen: Vec<Vec<bool>>,
    /// `support[tag]`: distinct senders parked for `tag`.
    support: Vec<usize>,
    /// Rounds completed because the quorum arrived.
    pub(crate) quorum_ticks: u64,
    /// Messages parked for a round other than the current one (early
    /// traffic, or stragglers for a not-yet-consumed slot).
    pub(crate) buffered_ahead: u64,
    /// Messages dropped for an out-of-range round tag.
    pub(crate) dropped_garbage: u64,
    /// Messages dropped by the `(sender, round)` dedup.
    pub(crate) dropped_duplicates: u64,
    /// Dedup probes: exactly one per in-range, non-late message, however
    /// full the slot already is.
    dedup_probes: u64,
}

impl Wheel {
    /// A wheel of `k` slots at round 0 with its announcement due.
    /// `quorum` is `n - f`, `window` the delivery window in beats.
    pub(crate) fn new(k: usize, quorum: usize, window: u64) -> Self {
        Wheel {
            k,
            quorum,
            window,
            round: 0,
            beats_waiting: 0,
            pending_send: true,
            resend: false,
            cached: false,
            seen: vec![Vec::new(); k],
            support: vec![0; k],
            quorum_ticks: 0,
            buffered_ahead: 0,
            dropped_garbage: 0,
            dropped_duplicates: 0,
            dedup_probes: 0,
        }
    }

    /// `true` when the current round's slot holds the quorum.
    pub(crate) fn quorum_ready(&self) -> bool {
        self.support[self.round] >= self.quorum
    }

    /// `true` when the current round has waited at least `window` beats.
    pub(crate) fn expired(&self) -> bool {
        self.beats_waiting >= self.window
    }

    /// Ages the current round by one beat. Once the round stalls past the
    /// window, every further beat re-arms a re-announcement.
    pub(crate) fn age(&mut self) {
        self.beats_waiting += 1;
        if self.beats_waiting >= self.window {
            self.resend = true;
        }
    }

    /// Beat send step: `true` when the current round is announced this
    /// beat — the first beat the round is live, then every beat it stays
    /// stalled past the window. Receivers deduplicate, so a
    /// re-announcement only matters to a peer whose buffer was lost.
    pub(crate) fn announce(&mut self) -> bool {
        if !(self.pending_send || self.resend) {
            return false;
        }
        self.pending_send = false;
        self.resend = false;
        self.cached = true;
        true
    }

    /// Parks one received tag: out-of-range tags are dropped, as are late
    /// echoes of the `window - 1` rounds just behind the current one (the
    /// mod-`k` wheel cannot tell them from early next-cycle traffic, and
    /// `k >= 2 * window` leaves room for both), and `(sender, tag)`
    /// duplicates (first wins).
    pub(crate) fn ingest(&mut self, from: NodeId, tag: u8) {
        let tag = usize::from(tag);
        if tag >= self.k {
            self.dropped_garbage += 1;
            return;
        }
        let behind = (self.round + self.k - tag) % self.k;
        if behind != 0 && behind < self.window as usize {
            return;
        }
        self.dedup_probes += 1;
        if !self.park(from, tag) {
            self.dropped_duplicates += 1;
            return;
        }
        if tag != self.round {
            self.buffered_ahead += 1;
        }
    }

    /// Records `from` as a supporter of `tag`; `false` when it already was.
    pub(crate) fn park(&mut self, from: NodeId, tag: usize) -> bool {
        let seen = &mut self.seen[tag];
        let idx = from.index();
        if idx >= seen.len() {
            seen.resize(idx + 1, false);
        }
        if seen[idx] {
            return false;
        }
        seen[idx] = true;
        self.support[tag] += 1;
        true
    }

    /// The quorum rule: consumes the current slot and enters the next
    /// round (mod `k`).
    pub(crate) fn tick(&mut self) {
        self.quorum_ticks += 1;
        self.seen[self.round].clear();
        self.support[self.round] = 0;
        self.enter((self.round + 1) % self.k);
    }

    /// Clock-style jump: drops everything parked (accumulated support may
    /// describe rounds the node no longer executes) and enters `round`.
    pub(crate) fn jump(&mut self, round: usize) {
        self.clear();
        self.enter(round);
    }

    fn enter(&mut self, round: usize) {
        self.round = round;
        self.beats_waiting = 0;
        self.pending_send = true;
        self.resend = false;
    }

    /// Drops every parked sender.
    pub(crate) fn clear(&mut self) {
        self.seen.iter_mut().for_each(Vec::clear);
        self.support.fill(0);
    }

    /// Transient fault: scrambles the round index, the timer, the send
    /// latches and the slots. `k`, the quorum and the window are code
    /// constants and survive (Remark 2.1).
    pub(crate) fn corrupt(&mut self, rng: &mut SimRng) {
        self.round = rng.random_range(0..self.k as u64) as usize;
        self.beats_waiting = rng.random_range(0..self.window.saturating_mul(2).max(1));
        self.pending_send = rng.random();
        self.resend = rng.random();
        self.cached = false;
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ingest_all(w: &mut Wheel, msgs: &[(u16, u8)]) {
        for &(from, tag) in msgs {
            w.ingest(NodeId::new(from), tag);
        }
    }

    #[test]
    fn quorum_advances_without_waiting() {
        let mut w = Wheel::new(8, 2, 2);
        ingest_all(&mut w, &[(0, 0), (1, 0)]);
        assert!(w.quorum_ready());
        w.tick();
        assert_eq!(w.round, 1);
        assert_eq!(w.beats_waiting, 0);
        assert_eq!(w.quorum_ticks, 1);
        assert_eq!(w.support[0], 0, "the consumed slot is cleared");
    }

    #[test]
    fn a_stalled_round_reannounces_every_beat() {
        let mut w = Wheel::new(8, 9, 3);
        assert!(w.announce(), "entering round 0 announces it");
        assert!(!w.announce(), "one announcement per round");
        w.age();
        w.age();
        assert!(!w.expired());
        assert!(!w.announce(), "no resend inside the window");
        w.age();
        assert!(w.expired());
        assert!(w.announce(), "a stalled round re-announces");
        assert!(!w.announce());
        w.age();
        assert!(w.announce(), "and keeps re-announcing each beat");
        assert_eq!(w.round, 0, "expiry alone never advances the round");
    }

    #[test]
    fn dedup_is_per_sender_and_round() {
        let mut w = Wheel::new(4, 9, 1);
        ingest_all(
            &mut w,
            &[
                (0, 1),
                (0, 1), // duplicate (sender, round)
                (0, 2), // same sender, different round: kept
                (0, 9), // out-of-range tag
            ],
        );
        assert_eq!(w.support[1], 1);
        assert_eq!(w.support[2], 1);
        assert_eq!(w.dropped_duplicates, 1);
        assert_eq!(w.dropped_garbage, 1);
        assert_eq!(w.buffered_ahead, 2);
    }

    #[test]
    fn dedup_cost_is_constant_per_message() {
        // Ingesting m messages costs exactly m dedup probes, no matter how
        // full the slot already is (a rescan-based dedup would pay
        // 0 + 1 + ... + (m-1) comparisons here).
        let mut w = Wheel::new(2, 1000, 1);
        let batch: Vec<_> = (0..64).map(|i| (i, 0)).collect();
        ingest_all(&mut w, &batch);
        assert_eq!(w.support[0], 64);
        assert_eq!(w.dedup_probes, 64);
        // A full duplicate replay: one probe each, all dropped.
        ingest_all(&mut w, &batch);
        assert_eq!(w.support[0], 64);
        assert_eq!(w.dropped_duplicates, 64);
        assert_eq!(w.dedup_probes, 128);
    }

    #[test]
    fn early_traffic_waits_for_its_round() {
        let mut w = Wheel::new(8, 1, 2);
        // Round 1's tag arrives while round 0 is still waiting.
        ingest_all(&mut w, &[(3, 1)]);
        assert!(!w.quorum_ready());
        // Round 0's quorum arrives: tick; now round 1 is instantly ready.
        ingest_all(&mut w, &[(2, 0)]);
        assert!(w.quorum_ready());
        w.tick();
        assert_eq!(w.round, 1);
        assert!(w.quorum_ready(), "the early tag was parked, not lost");
    }

    #[test]
    fn wheel_slot_survives_instance_wrap() {
        // At the last round, a tag for round 0 of the next cycle parks in
        // slot 0 and is consumed after the wrap; a tag just behind the
        // current round is a late echo and is dropped.
        let mut w = Wheel::new(4, 1, 2);
        w.jump(3);
        ingest_all(&mut w, &[(4, 0), (5, 2)]);
        assert_eq!(w.support[0], 1);
        assert_eq!(w.support[2], 0, "late echo dropped");
        ingest_all(&mut w, &[(4, 3)]);
        w.tick();
        assert_eq!(w.round, 0, "the wheel wraps mod k");
        assert_eq!(w.support[0], 1, "parked tag waits for the next cycle");
        assert!(w.quorum_ready());
    }

    #[test]
    fn jump_resets_timer_and_rearms_send() {
        let mut w = Wheel::new(8, 9, 4);
        assert!(w.announce(), "round 0 announcement");
        ingest_all(&mut w, &[(1, 5), (2, 6)]);
        for _ in 0..3 {
            w.age();
        }
        w.jump(4);
        assert_eq!(w.round, 4);
        assert_eq!(w.beats_waiting, 0);
        assert_eq!((w.support[5], w.support[6]), (0, 0), "a jump drops support");
        assert!(w.announce(), "send re-armed at the jump target");
    }

    #[test]
    fn corrupt_scrambles_state_but_not_constants() {
        let mut w = Wheel::new(5, 3, 2);
        let mut rng = SimRng::seed_from_u64(5);
        assert!(w.announce());
        ingest_all(&mut w, &[(0, 2)]);
        w.corrupt(&mut rng);
        assert_eq!((w.k, w.quorum, w.window), (5, 3, 2), "code, not state");
        assert!(w.round < 5);
        assert!(w.beats_waiting < 4);
        assert!(!w.cached);
        assert_eq!(w.support[2], 0, "wheel scrambled");
    }

    #[test]
    fn round_msg_wire_size() {
        let m = RoundMsg {
            round: 3,
            msg: 9u64,
        };
        assert_eq!(WireFormat::Fixed.len_of(&m), 9);
    }
}
