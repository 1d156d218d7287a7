//! Buffered, threshold-driven execution of [`RoundProtocol`] instances —
//! the bounded-delay counterpart of the lockstep [`crate::Pipeline`].
//!
//! # The two execution modes
//!
//! The lockstep [`crate::Pipeline`] hard-wires the paper's global-beat
//! assumption: round `r`'s send and receive happen inside one beat, so the
//! *driver's beat index* is the round index. Under
//! [`byzclock_sim::TimingModel::BoundedDelay`] that identification breaks —
//! a round-`r` message may arrive while the receiver is still waiting on
//! round `r - 1`, or after it has moved past `r`.
//!
//! [`BufferedRounds`] decouples protocol progress from the beat index:
//!
//! - every message carries its round index on the wire ([`RoundMsg`], a
//!   bounded tag — no unbounded counters, per the paper's
//!   self-stabilization discipline);
//! - incoming messages are buffered in a per-round *wheel* keyed by tag,
//!   deduplicated per `(sender, round)` so a Byzantine node cannot stuff a
//!   round no matter what tags it claims;
//! - the engine advances from its current round when the round's buffer
//!   holds an `n - f` quorum **or** a `window`-beat timeout expires —
//!   whichever comes first.
//!
//! Under [`byzclock_sim::TimingModel::Lockstep`] (`window == 1`) one of
//! the two rules fires every beat, so any existing [`RoundProtocol`] runs
//! exactly one round per beat — output-identical to synchronous execution
//! (pinned by `tests/buffered_engine.rs`). Under bounded delay the same
//! instance simply stretches rounds over as many beats as delivery needs:
//! a *correctness* guarantee, not bit-compatibility.
//!
//! Round tags wrap modulo the instance depth, so an early message for the
//! next instance's round 0 parks in the same wheel slot the next instance
//! will consume — the recyclable-session-number idea from the paper's
//! Fig. 1, transplanted to the semi-synchronous model.

use crate::round::{CoinScheme, RoundProtocol};
use byzclock_sim::{
    Application, Envelope, NodeId, Outbox, SimRng, Target, Wire, WireFormat, WireReader, WireWriter,
};
use rand::Rng;

/// A buffered-mode message: the instance-round index it belongs to plus
/// the instance-level payload. The tag is bounded (`u8`, `< depth`), so
/// the tagging is itself self-stabilizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundMsg<M> {
    /// Which round of the current (or next) instance this message belongs
    /// to. Byzantine senders may claim anything; out-of-range tags are
    /// dropped, in-range lies land in some wheel slot and are bounded by
    /// the per-`(sender, round)` dedup.
    pub round: u8,
    /// The instance-level payload.
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

/// Drains collected `(Target, msg)` sends into a node's [`Outbox`] — the
/// dispatch shared by every Application frontend of the buffered engine.
pub(crate) fn drain_sends<M>(sends: Vec<(Target, M)>, out: &mut Outbox<'_, M>) {
    for (target, msg) in sends {
        match target {
            Target::All => out.broadcast(msg),
            Target::One(to) => out.unicast(to, msg),
        }
    }
}

/// Which advancement rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advance {
    /// The current round's buffer reached the quorum.
    Quorum,
    /// The round sat for `window` beats without a quorum.
    Timeout,
}

/// Observability counters of a [`BufferedRounds`] engine. These are
/// measurement state, not protocol state: transient faults do not scramble
/// them (a corrupted node still *reports* honestly — the harness, not the
/// node, owns these numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferedStats {
    /// Rounds completed because the quorum arrived.
    pub quorum_advances: u64,
    /// Rounds completed by the timeout rule.
    pub timeout_advances: u64,
    /// Messages buffered for a round other than the one being executed
    /// (early traffic, or stragglers for a not-yet-consumed slot).
    pub buffered_ahead: u64,
    /// Messages dropped for an out-of-range round tag.
    pub dropped_garbage: u64,
    /// Messages dropped by the `(sender, round)` dedup.
    pub dropped_duplicates: u64,
    /// Messages dropped as late echoes of recently consumed rounds (only
    /// with a nonzero [`BufferedRounds::with_late_horizon`]).
    pub dropped_late: u64,
    /// Dedup membership checks performed: exactly one per in-range,
    /// non-late message, independent of how full the wheel slot already
    /// is. Pins the O(1)-per-message dedup cost (a rescan-based dedup
    /// would pay `slot.len()` comparisons per message instead).
    pub dedup_probes: u64,
}

/// Threshold-driven executor of one [`RoundProtocol`] instance after
/// another (round tags wrap modulo the depth, so consecutive instances
/// share the wheel).
#[derive(Debug)]
pub struct BufferedRounds<P: RoundProtocol> {
    depth: usize,
    quorum: usize,
    window: u64,
    /// Tags within `late_horizon` rounds *behind* the current round are
    /// dropped as late echoes instead of parking in the wheel. 0 (the
    /// default) buffers everything — the mod-`depth` wheel cannot tell a
    /// late echo from an early next-cycle message, so only protocols
    /// whose depth comfortably exceeds the echo span (the `bd-clock`
    /// family, which requires `k >= 2*window`) opt in.
    late_horizon: usize,
    inst: P,
    round: usize,
    beats_waiting: u64,
    pending_send: bool,
    /// Re-emit `last_sends` next send phase: set while the round is
    /// stalled past the window, so peers that discarded their buffers (a
    /// jump, a transient fault) can rebuild support — without this, a
    /// once-per-round send discipline deadlocks against any receiver-side
    /// buffer loss.
    resend: bool,
    /// The current round's emitted messages, cached for re-emission.
    last_sends: Vec<(Target, P::Msg)>,
    /// `wheel[tag]` buffers `(sender, msg)` pairs for round `tag`,
    /// deduplicated per sender, cleared when the round is consumed.
    wheel: Vec<Vec<(NodeId, P::Msg)>>,
    /// `seen[tag][sender]` mirrors `wheel[tag]` membership so the
    /// `(sender, round)` dedup is one indexed probe per message instead
    /// of an O(n) rescan of the slot. Grown on demand — the engine does
    /// not know `n`, and a Byzantine sender id is bounded by `u16`.
    seen: Vec<Vec<bool>>,
    stats: BufferedStats,
}

impl<P: RoundProtocol> BufferedRounds<P> {
    /// Builds the engine around a fresh instance.
    ///
    /// `depth` is the rounds per instance (`Δ`), `quorum` the number of
    /// distinct senders that complete a round early (`n - f` in every
    /// protocol use), `window` the timeout in beats (the timing model's
    /// delivery window: 1 under lockstep).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or above 255 (tags are `u8` on the wire),
    /// or if `quorum` or `window` is 0.
    pub fn new(depth: usize, quorum: usize, window: u64, spawn: impl FnOnce() -> P) -> Self {
        assert!((1..=255).contains(&depth), "depth must be in 1..=255");
        assert!(quorum >= 1, "a quorum of 0 would fire on silence");
        assert!(window >= 1, "a 0-beat timeout could never let sends land");
        BufferedRounds {
            depth,
            quorum,
            window,
            inst: spawn(),
            round: 0,
            beats_waiting: 0,
            pending_send: true,
            late_horizon: 0,
            resend: false,
            last_sends: Vec::new(),
            wheel: (0..depth).map(|_| Vec::new()).collect(),
            seen: (0..depth).map(|_| Vec::new()).collect(),
            stats: BufferedStats::default(),
        }
    }

    /// Sets the late-echo horizon (see the field docs): a message tagged
    /// `1..=horizon` rounds behind the current round is dropped instead
    /// of parking for the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the horizon does not leave room for ahead-of-round
    /// buffering (`horizon >= depth`).
    pub fn with_late_horizon(mut self, horizon: usize) -> Self {
        assert!(
            horizon < self.depth,
            "late horizon must stay below the wheel depth"
        );
        self.late_horizon = horizon;
        self
    }

    /// Rounds per instance.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The round currently being executed.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Beats the current round has been waiting since it was entered.
    pub fn beats_waiting(&self) -> u64 {
        self.beats_waiting
    }

    /// The advancement counters.
    pub fn stats(&self) -> BufferedStats {
        self.stats
    }

    /// The instance currently executing (inspection).
    pub fn instance(&self) -> &P {
        &self.inst
    }

    /// Distinct senders buffered for round `tag` (0 for out-of-range).
    pub fn support(&self, tag: usize) -> usize {
        self.wheel.get(tag).map_or(0, Vec::len)
    }

    /// `true` when the current round's buffer holds the quorum.
    pub fn quorum_ready(&self) -> bool {
        self.wheel[self.round].len() >= self.quorum
    }

    /// `true` when the current round has waited at least `window` beats
    /// (the timeout rule is eligible).
    pub fn expired(&self) -> bool {
        self.beats_waiting >= self.window
    }

    /// Ages the current round by one beat *without* advancing — for
    /// protocols that interleave their own rules between the quorum and
    /// timeout checks ([`BufferedRounds::poll`] does this internally).
    /// Once the round stalls past the window, every further beat re-arms
    /// a re-emission of the round's messages.
    pub fn age(&mut self) {
        self.beats_waiting += 1;
        if self.beats_waiting >= self.window {
            self.resend = true;
        }
    }

    /// Beat send step: emits the current round's messages (tagged) the
    /// first beat the round is live, nothing on the normal waiting beats —
    /// bounded-delay delivery loses nothing, so one send per round
    /// suffices. A round stalled past the window re-emits the *cached*
    /// messages each beat (never re-running the instance's `send_round`,
    /// which could perturb its state): receivers deduplicate, so the
    /// re-emission only matters to a peer whose buffer was lost.
    pub fn send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, RoundMsg<P::Msg>)>) {
        // A resend with nothing cached (a transient fault scrambled the
        // send latch and wiped the cache) falls back to a fresh
        // `send_round`: without it a corrupted node could stay mute
        // forever — no announcement, so no quorum ever counts it.
        if self.pending_send || (self.resend && self.last_sends.is_empty()) {
            self.pending_send = false;
            self.resend = false;
            let mut scratch = Vec::new();
            self.inst.send_round(self.round, rng, &mut scratch);
            self.last_sends = scratch;
        } else if self.resend {
            self.resend = false;
        } else {
            return;
        }
        let tag = self.round as u8;
        out.extend(self.last_sends.iter().map(|(target, msg)| {
            (
                *target,
                RoundMsg {
                    round: tag,
                    msg: msg.clone(),
                },
            )
        }));
    }

    /// Buffers a batch of received messages into the wheel: out-of-range
    /// tags are dropped, `(sender, round)` duplicates are dropped
    /// (first-wins), everything else parks in its tag's slot.
    pub fn ingest(&mut self, inbox: &[(NodeId, RoundMsg<P::Msg>)]) {
        for (from, rm) in inbox {
            let tag = usize::from(rm.round);
            if tag >= self.depth {
                self.stats.dropped_garbage += 1;
                continue;
            }
            let behind = (self.round + self.depth - tag) % self.depth;
            if behind != 0 && behind <= self.late_horizon {
                self.stats.dropped_late += 1;
                continue;
            }
            let seen = &mut self.seen[tag];
            let idx = from.index();
            if idx >= seen.len() {
                seen.resize(idx + 1, false);
            }
            self.stats.dedup_probes += 1;
            if seen[idx] {
                self.stats.dropped_duplicates += 1;
                continue;
            }
            seen[idx] = true;
            if tag != self.round {
                self.stats.buffered_ahead += 1;
            }
            self.wheel[tag].push((*from, rm.msg.clone()));
        }
    }

    /// One advancement check — call exactly once per beat, after
    /// [`BufferedRounds::ingest`]. Fires the quorum rule if the current
    /// round's buffer is full enough, otherwise ages the round and fires
    /// the timeout rule once `window` beats have passed. Returns what
    /// fired, plus the instance's output when the advanced round was the
    /// last one (a fresh instance is spawned from `spawn`, which sees the
    /// output so chained pipelines keep working).
    pub fn poll(
        &mut self,
        rng: &mut SimRng,
        spawn: impl FnOnce(&mut SimRng, &P::Output) -> P,
    ) -> Option<(Advance, Option<P::Output>)> {
        if self.quorum_ready() {
            let output = self.advance(Advance::Quorum, rng, spawn);
            return Some((Advance::Quorum, output));
        }
        self.beats_waiting += 1;
        if self.beats_waiting >= self.window {
            let output = self.advance(Advance::Timeout, rng, spawn);
            return Some((Advance::Timeout, output));
        }
        None
    }

    /// Completes the current round under `kind`: hands the round's buffer
    /// to the instance, clears the consumed slot, and moves on. Exposed
    /// (alongside [`BufferedRounds::quorum_ready`] /
    /// [`BufferedRounds::expired`]) for protocols that interleave their
    /// own rules between quorum and timeout — the `bd-clock` merge logic.
    pub fn advance(
        &mut self,
        kind: Advance,
        rng: &mut SimRng,
        spawn: impl FnOnce(&mut SimRng, &P::Output) -> P,
    ) -> Option<P::Output> {
        match kind {
            Advance::Quorum => self.stats.quorum_advances += 1,
            Advance::Timeout => self.stats.timeout_advances += 1,
        }
        let mut inbox = std::mem::take(&mut self.wheel[self.round]);
        self.seen[self.round].clear();
        inbox.sort_by_key(|&(from, _)| from);
        self.inst.recv_round(self.round, &inbox, rng);
        self.beats_waiting = 0;
        self.pending_send = true;
        self.resend = false;
        self.round += 1;
        if self.round < self.depth {
            return None;
        }
        let output = self.inst.output();
        self.inst = spawn(rng, &output);
        self.round = 0;
        Some(output)
    }

    // --- Model-checking hooks -------------------------------------------
    //
    // `byzclock-mcheck` snapshots and restores the engine's mutable state
    // through these (every state variable `corrupt` scrambles). They are
    // not part of the protocol surface.

    /// Model-checking hook: the send latches `(pending_send, resend)`.
    pub fn mc_flags(&self) -> (bool, bool) {
        (self.pending_send, self.resend)
    }

    /// Model-checking hook: whether a round's sends are cached for
    /// re-emission.
    pub fn mc_last_sends_cached(&self) -> bool {
        !self.last_sends.is_empty()
    }

    /// Model-checking hook: every buffered `(round tag, sender)` pair.
    pub fn mc_wheel(&self) -> Vec<(usize, NodeId)> {
        let mut out = Vec::new();
        for (tag, slot) in self.wheel.iter().enumerate() {
            out.extend(slot.iter().map(|&(from, _)| (tag, from)));
        }
        out
    }

    /// Model-checking hook: overwrites round index, timer, and send
    /// latches.
    ///
    /// # Panics
    ///
    /// Panics if `round >= depth`.
    pub fn mc_force(&mut self, round: usize, beats_waiting: u64, pending_send: bool, resend: bool) {
        assert!(round < self.depth, "mc_force round out of range");
        self.round = round;
        self.beats_waiting = beats_waiting;
        self.pending_send = pending_send;
        self.resend = resend;
    }

    /// Model-checking hook: replaces the wheel contents with the given
    /// `(round tag, sender)` pairs (payloads defaulted — the clock-family
    /// protocols carry `()` payloads). Duplicated pairs collapse as in
    /// [`BufferedRounds::ingest`].
    ///
    /// # Panics
    ///
    /// Panics if a tag is out of range.
    pub fn mc_set_wheel(&mut self, entries: &[(usize, NodeId)])
    where
        P::Msg: Default,
    {
        self.clear_buffers();
        for &(tag, from) in entries {
            assert!(tag < self.depth, "mc_set_wheel tag out of range");
            let seen = &mut self.seen[tag];
            let idx = from.index();
            if idx >= seen.len() {
                seen.resize(idx + 1, false);
            }
            if !seen[idx] {
                seen[idx] = true;
                self.wheel[tag].push((from, P::Msg::default()));
            }
        }
    }

    /// Model-checking hook: overwrites the re-emission cache.
    pub fn mc_set_last_sends(&mut self, sends: Vec<(Target, P::Msg)>) {
        self.last_sends = sends;
    }

    /// Clock-style jump: abandon the current round and continue from
    /// `round` of the running instance (timer reset, send re-armed). Only
    /// meaningful for wheels whose round index *is* the protocol state
    /// (the `bd-clock` family); a jumped generic instance simply never
    /// receives the skipped rounds' inboxes.
    ///
    /// # Panics
    ///
    /// Panics if `round >= depth`.
    pub fn jump_to(&mut self, round: usize) {
        assert!(round < self.depth, "jump target out of range");
        self.round = round;
        self.beats_waiting = 0;
        self.pending_send = true;
        self.resend = false;
    }

    /// Drops everything buffered in the wheel (used after a jump, when
    /// accumulated support may describe rounds the node no longer
    /// executes).
    pub fn clear_buffers(&mut self) {
        for slot in &mut self.wheel {
            slot.clear();
        }
        for slot in &mut self.seen {
            slot.clear();
        }
    }

    /// Transient fault: scrambles every piece of engine *state* — the
    /// instance, the round index, the timer, the send latch, the wheel.
    /// Depth/quorum/window are code constants and survive (Remark 2.1).
    pub fn corrupt(&mut self, rng: &mut SimRng) {
        self.inst.corrupt(rng);
        self.round = rng.random_range(0..self.depth as u64) as usize;
        self.beats_waiting = rng.random_range(0..self.window.saturating_mul(2).max(1));
        self.pending_send = rng.random();
        self.resend = rng.random();
        self.last_sends.clear();
        self.clear_buffers();
    }
}

/// The buffered engine as a plug-in [`Application`]: runs a
/// [`CoinScheme`]'s instances back to back under the advancement rule,
/// collecting each completed instance's output. This is the adapter the
/// equivalence and adversarial tests drive; protocol stacks embed
/// [`BufferedRounds`] directly.
#[derive(Debug)]
pub struct BufferedApp<S: CoinScheme> {
    scheme: S,
    engine: BufferedRounds<S::Proto>,
    outputs: Vec<bool>,
}

impl<S: CoinScheme> BufferedApp<S> {
    /// Builds the app: `quorum` is `n - f`, `window` the timing model's
    /// delivery window (1 under lockstep).
    pub fn new(scheme: S, quorum: usize, window: u64, rng: &mut SimRng) -> Self {
        let engine = BufferedRounds::new(scheme.rounds(), quorum, window, || scheme.spawn(rng));
        BufferedApp {
            scheme,
            engine,
            outputs: Vec::new(),
        }
    }

    /// Outputs of every instance completed so far, oldest first.
    pub fn outputs(&self) -> &[bool] {
        &self.outputs
    }

    /// The engine (round position, stats, support — test observability).
    pub fn engine(&self) -> &BufferedRounds<S::Proto> {
        &self.engine
    }
}

impl<S: CoinScheme> Application for BufferedApp<S> {
    type Msg = RoundMsg<<S::Proto as RoundProtocol>::Msg>;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        let mut sends = Vec::new();
        self.engine.send(out.rng(), &mut sends);
        drain_sends(sends, out);
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        let batch: Vec<(NodeId, Self::Msg)> =
            inbox.iter().map(|e| (e.from, e.msg.clone())).collect();
        self.engine.ingest(&batch);
        let scheme = self.scheme.clone();
        if let Some((_, Some(output))) = self.engine.poll(rng, move |r, _| scheme.spawn(r)) {
            self.outputs.push(output);
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.engine.corrupt(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::testutil::{XorTestProto, XorTestScheme};
    use rand::SeedableRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(5)
    }

    fn engine(depth: usize, quorum: usize, window: u64) -> BufferedRounds<XorTestProto> {
        let scheme = XorTestScheme {
            rounds: depth,
            quorum: 1,
        };
        let mut r = rng();
        BufferedRounds::new(depth, quorum, window, || scheme.spawn(&mut r))
    }

    fn msg(round: u8, bit: bool) -> RoundMsg<bool> {
        RoundMsg { round, msg: bit }
    }

    #[test]
    fn quorum_advances_without_waiting() {
        let mut e = engine(3, 2, 4);
        let mut r = rng();
        e.ingest(&[
            (NodeId::new(0), msg(0, true)),
            (NodeId::new(1), msg(0, false)),
        ]);
        let scheme = XorTestScheme {
            rounds: 3,
            quorum: 1,
        };
        let fired = e.poll(&mut r, |r2, _| scheme.spawn(r2));
        assert_eq!(fired.map(|(k, _)| k), Some(Advance::Quorum));
        assert_eq!(e.round(), 1);
        assert_eq!(e.stats().quorum_advances, 1);
    }

    #[test]
    fn timeout_advances_after_window_beats() {
        let mut e = engine(3, 5, 3);
        let mut r = rng();
        let scheme = XorTestScheme {
            rounds: 3,
            quorum: 1,
        };
        for beat in 0..2 {
            assert!(
                e.poll(&mut r, |r2, _| scheme.spawn(r2)).is_none(),
                "no quorum, window not reached at beat {beat}"
            );
        }
        let fired = e.poll(&mut r, |r2, _| scheme.spawn(r2));
        assert_eq!(fired.map(|(k, _)| k), Some(Advance::Timeout));
        assert_eq!(e.stats().timeout_advances, 1);
        assert_eq!(e.beats_waiting(), 0, "timer resets on advance");
    }

    #[test]
    fn dedup_is_per_sender_and_round() {
        let mut e = engine(4, 9, 1);
        let a = NodeId::new(0);
        e.ingest(&[
            (a, msg(1, true)),
            (a, msg(1, false)), // duplicate (sender, round)
            (a, msg(2, true)),  // same sender, different round: kept
            (a, msg(9, true)),  // out-of-range tag
        ]);
        assert_eq!(e.support(1), 1);
        assert_eq!(e.support(2), 1);
        let s = e.stats();
        assert_eq!(s.dropped_duplicates, 1);
        assert_eq!(s.dropped_garbage, 1);
        assert_eq!(s.buffered_ahead, 2);
    }

    #[test]
    fn dedup_cost_is_constant_per_message() {
        // Asymptotics regression: ingesting m messages must cost exactly
        // m dedup probes, no matter how full the slot already is. The old
        // rescan-based dedup paid 0 + 1 + ... + (m-1) comparisons here.
        let mut e = engine(2, 1000, 1);
        let batch: Vec<_> = (0..64).map(|i| (NodeId::new(i), msg(0, true))).collect();
        e.ingest(&batch);
        assert_eq!(e.support(0), 64);
        assert_eq!(e.stats().dedup_probes, 64);
        // A full duplicate replay: one probe each, all dropped.
        e.ingest(&batch);
        assert_eq!(e.support(0), 64);
        assert_eq!(e.stats().dropped_duplicates, 64);
        assert_eq!(e.stats().dedup_probes, 128);
    }

    #[test]
    fn early_traffic_waits_for_its_round() {
        let mut e = engine(2, 1, 8);
        let mut r = rng();
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 1,
        };
        // Round 1's vote arrives while round 0 is still waiting.
        e.ingest(&[(NodeId::new(3), msg(1, true))]);
        assert!(!e.quorum_ready());
        // Round 0's quorum arrives: advance; now round 1 is instantly ready.
        e.ingest(&[(NodeId::new(2), msg(0, true))]);
        assert!(e.quorum_ready());
        e.poll(&mut r, |r2, _| scheme.spawn(r2));
        assert_eq!(e.round(), 1);
        assert!(e.quorum_ready(), "the early message was buffered, not lost");
    }

    #[test]
    fn completion_yields_output_and_respawns() {
        let mut e = engine(2, 1, 1);
        let mut r = rng();
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 1,
        };
        e.ingest(&[(NodeId::new(0), msg(0, true))]);
        assert!(matches!(
            e.poll(&mut r, |r2, _| scheme.spawn(r2)),
            Some((Advance::Quorum, None))
        ));
        e.ingest(&[(NodeId::new(0), msg(1, true))]);
        let (_, out) = e.poll(&mut r, |r2, _| scheme.spawn(r2)).unwrap();
        assert!(out.is_some(), "last round completion yields the output");
        assert_eq!(e.round(), 0, "fresh instance starts at round 0");
    }

    #[test]
    fn wheel_slot_survives_instance_wrap() {
        // A message for the *next* instance's round 0 arrives before this
        // instance finished: it parks in slot 0 and is consumed next cycle.
        let mut e = engine(2, 9, 1);
        let mut r = rng();
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 1,
        };
        e.ingest(&[(NodeId::new(4), msg(0, true))]);
        // Consume round 0 (timeout, window 1) -> slot 0 cleared.
        e.poll(&mut r, |r2, _| scheme.spawn(r2));
        assert_eq!(e.support(0), 0);
        // Early round-0 message of the NEXT instance arrives during round 1.
        e.ingest(&[(NodeId::new(4), msg(0, false))]);
        assert_eq!(e.support(0), 1);
        e.poll(&mut r, |r2, _| scheme.spawn(r2)); // finishes the instance
        assert_eq!(e.round(), 0);
        assert_eq!(e.support(0), 1, "parked message waits for the new instance");
    }

    #[test]
    fn jump_resets_timer_and_rearms_send() {
        let mut e = engine(6, 9, 4);
        let mut r = rng();
        let scheme = XorTestScheme {
            rounds: 6,
            quorum: 1,
        };
        let mut out = Vec::new();
        e.send(&mut r, &mut out);
        assert_eq!(out.len(), 1, "round 0 send");
        e.poll(&mut r, |r2, _| scheme.spawn(r2));
        e.jump_to(4);
        assert_eq!(e.round(), 4);
        assert_eq!(e.beats_waiting(), 0);
        out.clear();
        e.send(&mut r, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.round, 4, "send re-armed at the jump target");
    }

    #[test]
    fn corrupt_scrambles_state_but_not_constants() {
        let mut e = engine(5, 3, 2);
        let mut r = rng();
        e.ingest(&[(NodeId::new(0), msg(2, true))]);
        e.corrupt(&mut r);
        assert_eq!(e.depth(), 5, "depth is code, not state");
        assert!(e.round() < 5);
        assert_eq!(e.support(2), 0, "wheel scrambled");
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_rejected() {
        let _ = engine(0, 1, 1);
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
